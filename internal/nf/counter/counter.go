// Package counter implements a per-flow accounting and lightweight
// intrusion-detection NF — the notification source of §3: "expected but
// anomalous events such as an intrusion attempt or detected malware". It
// counts packets and bytes per five-tuple, raises a critical notification
// when a flow exceeds a packets-per-second threshold (DoS heuristic), and
// a warning when a payload matches a configured signature. Flow counters
// are migration state.
package counter

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// FlowStats accumulates per-flow counters. Seq stamps the dirty epoch of
// the flow's last update, so pre-copy migration rounds export only flows
// touched since the previous round.
type FlowStats struct {
	Packets uint64
	Bytes   uint64
	// window tracking for the pps heuristic
	WindowStart time.Time
	WindowCount uint64
	Alerted     bool
	Seq         uint64
}

// Monitor is the NF instance.
type Monitor struct {
	name       string
	ppsAlert   uint64 // 0 disables the heuristic
	signatures [][]byte

	mu      sync.Mutex
	clk     clock.Clock
	flows   map[packet.FiveTuple]*FlowStats
	notify  nf.NotifyFunc
	parser  packet.Parser
	seq     uint64 // dirty epoch, bumped per flow update
	total   uint64
	alerts  uint64
	sigHits uint64
}

// New creates a monitor alerting when any flow exceeds ppsAlert packets in
// a one-second window (0 disables), matching the given payload signatures.
func New(name string, ppsAlert uint64, signatures ...string) *Monitor {
	m := &Monitor{
		name:     name,
		ppsAlert: ppsAlert,
		clk:      clock.System(),
		flows:    make(map[packet.FiveTuple]*FlowStats),
	}
	for _, s := range signatures {
		if s != "" {
			m.signatures = append(m.signatures, []byte(s))
		}
	}
	return m
}

// SetClock implements nf.ClockSetter.
func (m *Monitor) SetClock(c clock.Clock) {
	m.mu.Lock()
	m.clk = c
	m.mu.Unlock()
}

// SetNotifier implements nf.NotifierSetter.
func (m *Monitor) SetNotifier(fn nf.NotifyFunc) {
	m.mu.Lock()
	m.notify = fn
	m.mu.Unlock()
}

// Name implements nf.Function.
func (m *Monitor) Name() string { return m.name }

// Kind implements nf.Function.
func (m *Monitor) Kind() string { return "counter" }

// Flows returns the number of tracked flows.
func (m *Monitor) Flows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.flows)
}

// Flow returns a copy of one flow's counters.
func (m *Monitor) Flow(ft packet.FiveTuple) (FlowStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fs, ok := m.flows[ft.Canonical()]
	if !ok {
		return FlowStats{}, false
	}
	return *fs, true
}

// Process implements nf.Function.
func (m *Monitor) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(m, dir, frame)
}

// ProcessBatch implements nf.Function: the monitor never drops, so
// the batch passes through whole under a single lock acquisition. What the
// batch raised is delivered after the lock is released, in order — the
// notifier is an agent callback that may call back into the monitor.
func (m *Monitor) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	m.mu.Lock()
	notes := m.accountLocked(frames)
	notify := m.notify
	m.mu.Unlock()
	if notify != nil {
		for _, n := range notes {
			notify(n)
		}
	}
	out.Forward = append(out.Forward, frames...)
}

// accountLocked updates flow accounting for a batch with m.mu held and
// returns the notifications it raised. The flow table is probed once per
// same-flow run and the clock read at most once per batch; neither memo
// leaves the function, so neither outlives the lock every import takes.
func (m *Monitor) accountLocked(frames [][]byte) (notes []nf.Notification) {
	var (
		run packet.Run
		fs  *FlowStats
		ft  packet.FiveTuple
		now time.Time
	)
	clock := func() time.Time {
		if now.IsZero() {
			now = m.clk.Now()
		}
		return now
	}
	note := func(sev nf.Severity, msg string) {
		notes = append(notes, nf.Notification{Severity: sev, NF: m.name, Kind: "counter", Message: msg, At: clock()})
	}
	for _, frame := range frames {
		m.total++
		if !run.Continues(frame) {
			if err := m.parser.Parse(frame); err != nil {
				continue
			}
			var ok bool
			if ft, ok = m.parser.FiveTuple(); !ok {
				continue
			}
			key := ft.Canonical()
			if fs = m.flows[key]; fs == nil {
				fs = &FlowStats{WindowStart: clock()}
				m.flows[key] = fs
			}
			// A signature is searched for in each frame's own payload, which
			// only a parse of that frame yields.
			if len(m.signatures) == 0 {
				run.Start(frame)
			}
		}
		m.seq++
		fs.Seq = m.seq
		fs.Packets++
		fs.Bytes += uint64(len(frame))

		if m.ppsAlert > 0 {
			if clock().Sub(fs.WindowStart) >= time.Second {
				fs.WindowStart = clock()
				fs.WindowCount = 0
				fs.Alerted = false
			}
			fs.WindowCount++
			if fs.WindowCount > m.ppsAlert && !fs.Alerted {
				fs.Alerted = true
				m.alerts++
				note(nf.SevCritical, "flow "+ft.String()+" exceeded "+strconv.FormatUint(m.ppsAlert, 10)+" pps")
			}
		}
		if len(m.signatures) == 0 {
			continue
		}
		payload := m.parser.TransportPayload()
		for _, sig := range m.signatures {
			if bytes.Contains(payload, sig) {
				m.sigHits++
				note(nf.SevWarning, "signature "+strconv.Quote(string(sig))+" in flow "+ft.String())
				break
			}
		}
	}
	return notes
}

// NFStats implements nf.StatsReporter.
func (m *Monitor) NFStats() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]uint64{
		"total_frames":   m.total,
		"tracked_flows":  uint64(len(m.flows)),
		"pps_alerts":     m.alerts,
		"signature_hits": m.sigHits,
	}
}

// A monitor's state is its totals (frames, pps alerts, signature hits:
// uvarints), then the count and the flows in key order: the canonical
// five-tuple (proto u8, IP, port u16, IP, port u16), packets and bytes
// (uvarints), window start (time), window count (uvarint), alerted (bool),
// dirty epoch (uvarint). A full export and a delta share it.

// ExportState implements container.StateHandler: every flow's counters,
// keyed by the tuple itself, so accounting continuity survives migration.
func (m *Monitor) ExportState() ([]byte, error) {
	data, _, err := m.ExportDelta(0)
	return data, err
}

// ImportState implements container.StateHandler: the flow table becomes
// the blob's.
func (m *Monitor) ImportState(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.importLocked(data, true)
}

// ExportDelta implements nf.DeltaStateful: flows updated after epoch
// `since` (everything for since == 0) plus the aggregate totals, which are
// tiny and therefore shipped every round. Flows are never evicted, so the
// upsert-only delta is exact.
func (m *Monitor) ExportDelta(since uint64) ([]byte, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]packet.FiveTuple, 0, len(m.flows))
	for ft, fs := range m.flows {
		if fs.Seq > since {
			keys = append(keys, ft)
		}
	}
	slices.SortFunc(keys, compareTuples)
	w := make(nf.RecordWriter, 0, 32+flowBytes*len(keys))
	w.Uvarint(m.total)
	w.Uvarint(m.alerts)
	w.Uvarint(m.sigHits)
	w.Uvarint(uint64(len(keys)))
	for _, ft := range keys {
		fs := m.flows[ft]
		w.Uint8(ft.Proto)
		w.IP(ft.Src.Addr)
		w.Uint16(ft.Src.Port)
		w.IP(ft.Dst.Addr)
		w.Uint16(ft.Dst.Port)
		w.Uvarint(fs.Packets)
		w.Uvarint(fs.Bytes)
		w.Time(fs.WindowStart)
		w.Uvarint(fs.WindowCount)
		w.Bool(fs.Alerted)
		w.Uvarint(fs.Seq)
	}
	return w, m.seq, nil
}

// flowBytes is a flow's record with two-byte counters and epoch.
const flowBytes = 13 + 2 + 2 + 8 + 1 + 1 + 2

// ImportDelta implements nf.DeltaStateful by merging exported flows into
// the live table; totals are absolute and replace the local aggregates.
func (m *Monitor) ImportDelta(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.importLocked(data, false)
}

// importLocked decodes a blob and, only if all of it is sound, upserts its
// flows (into an empty table when replace is set) and adopts its totals,
// advancing the local dirty epoch past every imported stamp. Called with
// mu held.
func (m *Monitor) importLocked(data []byte, replace bool) error {
	r := nf.NewRecordReader(data)
	total, alerts, sigHits := r.Uvarint(), r.Uvarint(), r.Uvarint()
	keys := make([]packet.FiveTuple, r.Count())
	flows := make([]FlowStats, len(keys))
	for i := range keys {
		keys[i] = packet.FiveTuple{
			Proto: r.Uint8(),
			Src:   packet.Endpoint{Addr: r.IP(), Port: r.Uint16()},
			Dst:   packet.Endpoint{Addr: r.IP(), Port: r.Uint16()},
		}
		flows[i] = FlowStats{
			Packets:     r.Uvarint(),
			Bytes:       r.Uvarint(),
			WindowStart: r.Time(),
			WindowCount: r.Uvarint(),
			Alerted:     r.Bool(),
			Seq:         r.Uvarint(),
		}
		if i > 0 && compareTuples(keys[i-1], keys[i]) >= 0 {
			return fmt.Errorf("%w: counter flows out of key order", nf.ErrBadRecord)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if replace {
		m.flows = make(map[packet.FiveTuple]*FlowStats, len(keys))
	}
	m.total, m.alerts, m.sigHits = total, alerts, sigHits
	for i, ft := range keys {
		m.seq = max(m.seq, flows[i].Seq)
		m.flows[ft] = &flows[i]
	}
	return nil
}

func compareTuples(a, b packet.FiveTuple) int {
	return cmp.Or(cmp.Compare(a.Proto, b.Proto), compareEndpoints(a.Src, b.Src), compareEndpoints(a.Dst, b.Dst))
}

func compareEndpoints(a, b packet.Endpoint) int {
	return cmp.Or(cmp.Compare(a.Addr.Uint32(), b.Addr.Uint32()), cmp.Compare(a.Port, b.Port))
}

var _ nf.DeltaStateful = (*Monitor)(nil)

func init() {
	nf.Default.RegisterKind("counter", nf.KindInfo{Shareable: true}, func(name string, params nf.Params) (nf.Function, error) {
		pps, err := strconv.ParseUint(params.Get("alert_pps", "0"), 10, 64)
		if err != nil {
			return nil, err
		}
		var sigs []string
		if s := params.Get("signatures", ""); s != "" {
			sigs = strings.Split(s, ",")
		}
		return New(name, pps, sigs...), nil
	})
}
