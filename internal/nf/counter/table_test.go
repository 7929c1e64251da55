package counter

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// mapModel is the counter's accounting as it was before the flat table: a
// map of flows, one frame at a time. TestMonitorTableEqualsMapModel holds
// the table and the batch probe to it.
type mapModel struct {
	name                        string
	ppsAlert                    uint64
	sigs                        []string
	flows                       map[packet.FiveTuple]*FlowStats
	seq, total, alerts, sigHits uint64
	notes                       []nf.Notification
}

func (mm *mapModel) frame(frame []byte, now time.Time) {
	mm.total++
	var p packet.Parser
	if p.Parse(frame) != nil {
		return
	}
	ft, ok := p.FiveTuple()
	if !ok {
		return
	}
	fs := mm.flows[ft.Canonical()]
	if fs == nil {
		fs = &FlowStats{WindowStart: now}
		mm.flows[ft.Canonical()] = fs
	}
	mm.seq++
	fs.Seq, fs.Packets, fs.Bytes = mm.seq, fs.Packets+1, fs.Bytes+uint64(len(frame))
	note := func(sev nf.Severity, msg string) {
		mm.notes = append(mm.notes, nf.Notification{Severity: sev, NF: mm.name, Kind: "counter", Message: msg, At: now})
	}
	if mm.ppsAlert > 0 {
		if now.Sub(fs.WindowStart) >= time.Second {
			fs.WindowStart, fs.WindowCount, fs.Alerted = now, 0, false
		}
		if fs.WindowCount++; fs.WindowCount > mm.ppsAlert && !fs.Alerted {
			fs.Alerted = true
			mm.alerts++
			note(nf.SevCritical, "flow "+ft.String()+" exceeded "+strconv.FormatUint(mm.ppsAlert, 10)+" pps")
		}
	}
	for _, sig := range mm.sigs {
		if strings.Contains(string(p.TransportPayload()), sig) {
			mm.sigHits++
			note(nf.SevWarning, "signature "+strconv.Quote(sig)+" in flow "+ft.String())
			break
		}
	}
}

// keyBytes is a key as the record format writes it; its byte order is the
// record's key order.
func keyBytes(ft packet.FiveTuple) []byte {
	w := nf.RecordWriter{}
	w.Uint8(ft.Proto)
	w.IP(ft.Src.Addr)
	w.Uint16(ft.Src.Port)
	w.IP(ft.Dst.Addr)
	w.Uint16(ft.Dst.Port)
	return w
}

func (mm *mapModel) export(since uint64) []byte {
	var keys [][]byte
	byKey := map[string]*FlowStats{}
	for ft, fs := range mm.flows {
		if fs.Seq > since {
			keys = append(keys, keyBytes(ft))
			byKey[string(keys[len(keys)-1])] = fs
		}
	}
	slices.SortFunc(keys, bytes.Compare)
	w := nf.RecordWriter{}
	for _, v := range []uint64{mm.total, mm.alerts, mm.sigHits, uint64(len(keys))} {
		w.Uvarint(v)
	}
	for _, k := range keys {
		fs := byKey[string(k)]
		w = append(w, k...)
		w.Uvarint(fs.Packets)
		w.Uvarint(fs.Bytes)
		w.Time(fs.WindowStart)
		w.Uvarint(fs.WindowCount)
		w.Bool(fs.Alerted)
		w.Uvarint(fs.Seq)
	}
	return w
}

func (mm *mapModel) load(data []byte, replace bool) {
	r := nf.NewRecordReader(data)
	mm.total, mm.alerts, mm.sigHits = r.Uvarint(), r.Uvarint(), r.Uvarint()
	if replace {
		mm.flows = map[packet.FiveTuple]*FlowStats{}
	}
	for range r.Count() {
		ft := packet.FiveTuple{Proto: r.Uint8(),
			Src: packet.Endpoint{Addr: r.IP(), Port: r.Uint16()}, Dst: packet.Endpoint{Addr: r.IP(), Port: r.Uint16()}}
		fs := &FlowStats{Packets: r.Uvarint(), Bytes: r.Uvarint(), WindowStart: r.Time(), WindowCount: r.Uvarint(), Alerted: r.Bool(), Seq: r.Uvarint()}
		mm.flows[ft] = fs
		mm.seq = max(mm.seq, fs.Seq)
	}
}

func (mm *mapModel) stats() map[string]uint64 {
	return map[string]uint64{"total_frames": mm.total, "tracked_flows": uint64(len(mm.flows)), "pps_alerts": mm.alerts, "signature_hits": mm.sigHits}
}

// sameStats compares a row's snapshot with the model's: the window start
// as an instant, since a row keeps it as Unix nanoseconds.
func sameStats(a, b FlowStats) bool {
	return a.WindowStart.Equal(b.WindowStart) && a.Packets == b.Packets && a.Bytes == b.Bytes &&
		a.WindowCount == b.WindowCount && a.Alerted == b.Alerted && a.Seq == b.Seq
}

// modelFlow is flow i of the model test's population: UDP mostly, every
// fifth TCP, each to one of seven servers.
func modelFlow(i int) packet.FiveTuple {
	proto := uint8(packet.ProtoUDP)
	if i%5 == 0 {
		proto = packet.ProtoTCP
	}
	return packet.FiveTuple{
		Proto: proto,
		Src:   packet.Endpoint{Addr: packet.IP{10, 1, byte(i >> 8), byte(i)}, Port: uint16(1024 + i%3000)},
		Dst:   packet.Endpoint{Addr: packet.IP{10, 200, 0, byte(i % 7)}, Port: 53},
	}
}

// tagTwins returns two canonical TCP keys of one hash tag, outside
// modelFlow's population: a probe that took a tag match for a key match
// would give the second the first one's row.
func tagTwins() (packet.FiveTuple, packet.FiveTuple) {
	seen := map[uint32]packet.FiveTuple{}
	for i := 0; ; i++ {
		ft := packet.FiveTuple{
			Proto: packet.ProtoTCP,
			Src:   packet.Endpoint{Addr: packet.IP{172, 16, byte(i >> 16), byte(i >> 8)}, Port: uint16(i)},
			Dst:   packet.Endpoint{Addr: packet.IP{172, 31, 0, 1}, Port: 443},
		}
		tag := keyOf(ft).hash()
		if twin, ok := seen[tag]; ok {
			return twin, ft
		}
		seen[tag] = ft
	}
}

func buildFrame(ft packet.FiveTuple, payload []byte) []byte {
	mac := packet.MAC{2, 0, 0, 0, 0, 1}
	if ft.Proto == packet.ProtoTCP {
		return packet.BuildTCP(mac, mac, ft.Src.Addr, ft.Dst.Addr, ft.Src.Port, ft.Dst.Port, packet.TCPOptions{Flags: packet.TCPAck}, payload)
	}
	return packet.BuildUDP(mac, mac, ft.Src.Addr, ft.Dst.Addr, ft.Src.Port, ft.Dst.Port, payload)
}

// TestMonitorTableEqualsMapModel feeds seeded random batches of 1–64 frames
// over 20 000 flows (the index doubles ten times, from 64 entries) to three
// monitors, plain, alerting on a virtual clock and matching signatures, and
// the same frames one at a time to a map model of each. Batches mix
// same-flow trains, reverse-direction frames, ARP and a pair of keys of
// one hash tag; a full blob (replace) and a delta (merge) from a donor are
// imported mid-stream. After every batch, Flows, NFStats and the batch's
// notifications must equal the model's, and so must Flow of every key the
// batch touched; after each import and at the end, Flow of every key seen.
// At the end ExportDelta(0) and a delta since a mid-stream epoch must equal
// the model's encoder byte for byte.
func TestMonitorTableEqualsMapModel(t *testing.T) {
	const flows = 20000
	twinA, twinB := tagTwins()
	// Payloads come in pairs of one length, so a train can mix a frame that
	// carries a signature with one that does not and stay one run.
	payloads := [][2][]byte{
		{[]byte("data"), []byte("date")},
		{[]byte("more data"), []byte("more date")},
		{[]byte("an exploit-kit marker"), []byte("an exploit-kat marker")},
		{[]byte("beacon"), []byte("bacon!")},
	}
	for _, tc := range []struct {
		name string
		pps  uint64
		sigs []string
	}{
		{"plain", 0, nil},
		{"alerting", 20, nil},
		{"signatures", 0, []string{"exploit-kit", "beacon"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 33))
			clk := clock.NewVirtual()
			m := New("acct", tc.pps, tc.sigs...)
			m.SetClock(clk)
			var got []nf.Notification
			m.SetNotifier(func(n nf.Notification) { got = append(got, n) })
			model := &mapModel{name: "acct", ppsAlert: tc.pps, sigs: tc.sigs, flows: map[packet.FiveTuple]*FlowStats{}}
			donor := New("acct", tc.pps, tc.sigs...)
			donor.SetClock(clk)
			seen := map[packet.FiveTuple]bool{}

			checkFlow := func(ft packet.FiveTuple) {
				t.Helper()
				fs, ok := m.Flow(ft)
				want, wok := model.flows[ft.Canonical()]
				if ok != wok || ok && !sameStats(fs, *want) {
					t.Fatalf("Flow(%v) = %+v, %v; model %+v, %v", ft, fs, ok, want, wok)
				}
			}
			checkAll := func() {
				t.Helper()
				for ft := range seen {
					checkFlow(ft)
				}
				for ft := range model.flows {
					checkFlow(ft)
				}
			}
			next, fresh, hot := 0, 0, [8]int{}
			for i := range hot {
				hot[i] = rng.IntN(flows)
			}
			pick := func() packet.FiveTuple {
				switch d := rng.IntN(100); {
				case d < 2:
					return twinA
				case d < 4:
					return twinB
				case d < 20:
					return modelFlow(hot[rng.IntN(len(hot))])
				case d < 60 && next < flows:
					next++
					return modelFlow(next - 1)
				default:
					return modelFlow(rng.IntN(max(next, 1)))
				}
			}
			var midEpoch uint64
			for batch := 0; next < flows || batch < 1500; batch++ {
				switch batch {
				case 400:
					// The donor's full state replaces the table.
					for range 3000 {
						donor.Process(nf.Outbound, buildFrame(modelFlow(rng.IntN(flows)), payloads[0][0]))
					}
					blob, err := donor.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.ImportState(blob); err != nil {
						t.Fatal(err)
					}
					model.load(blob, true)
					checkAll()
				case 900:
					// A delta of the donor's is merged into it.
					_, epoch, _ := donor.ExportDelta(0)
					for range 500 {
						donor.Process(nf.Outbound, buildFrame(modelFlow(rng.IntN(flows)), payloads[1][0]))
					}
					delta, _, err := donor.ExportDelta(epoch)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.ImportDelta(delta); err != nil {
						t.Fatal(err)
					}
					model.load(delta, false)
					checkAll()
				case 1000:
					_, midEpoch, _ = m.ExportDelta(0)
					if midEpoch != model.seq {
						t.Fatalf("epoch %d, model %d", midEpoch, model.seq)
					}
				}
				clk.Advance(time.Duration(rng.IntN(300)) * time.Millisecond)

				var frames [][]byte
				var touched []packet.FiveTuple
				for n := 1 + rng.IntN(64); len(frames) < n; {
					if rng.IntN(20) == 0 {
						frames = append(frames, packet.BuildARP(packet.ARPRequest, packet.MAC{2, 0, 0, 0, 0, 9}, packet.IP{10, 0, 0, 9}, packet.MAC{}, packet.IP{10, 0, 0, 1}))
						continue
					}
					ft := pick()
					if rng.IntN(4) == 0 {
						ft = ft.Reverse()
					}
					if !seen[ft.Canonical()] {
						seen[ft.Canonical()] = true
						fresh++
					}
					touched = append(touched, ft)
					payload := payloads[rng.IntN(len(payloads))]
					train := 1
					if rng.IntN(3) == 0 {
						train = 2 + rng.IntN(30)
					}
					for ; train > 0 && len(frames) < n; train-- {
						frames = append(frames, buildFrame(ft, payload[rng.IntN(2)]))
					}
				}
				for _, f := range frames {
					model.frame(f, clk.Now())
				}
				var out nf.Output
				m.ProcessBatch(nf.Outbound, frames, &out)
				if len(out.Forward) != len(frames) {
					t.Fatalf("batch %d: %d of %d frames forwarded", batch, len(out.Forward), len(frames))
				}
				if m.Flows() != len(model.flows) {
					t.Fatalf("batch %d: %d flows, model %d", batch, m.Flows(), len(model.flows))
				}
				if s, want := m.NFStats(), model.stats(); fmt.Sprint(s) != fmt.Sprint(want) {
					t.Fatalf("batch %d: stats %v, model %v", batch, s, want)
				}
				if !slices.EqualFunc(got, model.notes, func(a, b nf.Notification) bool {
					return a.Severity == b.Severity && a.NF == b.NF && a.Kind == b.Kind && a.Message == b.Message && a.At.Equal(b.At)
				}) {
					t.Fatalf("batch %d: notifications %v, model %v", batch, got, model.notes)
				}
				got, model.notes = got[:0], model.notes[:0]
				for _, ft := range touched {
					checkFlow(ft)
				}
			}
			checkAll()
			if fresh < flows {
				t.Fatalf("only %d flows seen", fresh)
			}
			for _, since := range []uint64{0, midEpoch} {
				blob, epoch, err := m.ExportDelta(since)
				if err != nil {
					t.Fatal(err)
				}
				if want := model.export(since); !bytes.Equal(blob, want) || epoch != model.seq {
					t.Fatalf("ExportDelta(%d): %d bytes, epoch %d; model %d bytes, epoch %d", since, len(blob), epoch, len(want), model.seq)
				}
			}
			if tc.pps > 0 && model.alerts == 0 || len(tc.sigs) > 0 && model.sigHits == 0 {
				t.Fatalf("the model raised nothing: %v", model.stats())
			}
		})
	}
}
