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

// FlowStats is a snapshot of one flow's counters. Seq stamps the dirty
// epoch of the flow's last update, so pre-copy migration rounds export only
// flows touched since the previous round.
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
	flows   flowTable
	starts  []runStart // accountLocked's scratch, kept for its capacity
	notify  nf.NotifyFunc
	parser  packet.Parser
	seq     uint64 // dirty epoch, bumped per flow update
	total   uint64
	alerts  uint64
	sigHits uint64
}

// runStart is a frame of a batch that does not continue a run: the frames
// behind it up to the next runStart are its run's. A frame that carries no
// flow (not IP, or no ports) is one too, with flow unset.
type runStart struct {
	at   int     // frame index in the batch
	key  flowKey // as parsed, not canonical: a notification names it
	flow bool
	sig  int    // the signature found in its payload, or -1
	row  uint32 // the flow's row, once the probe pass has run
}

// New creates a monitor alerting when any flow exceeds ppsAlert packets in
// a one-second window (0 disables), matching the given payload signatures.
func New(name string, ppsAlert uint64, signatures ...string) *Monitor {
	m := &Monitor{
		name:     name,
		ppsAlert: ppsAlert,
		clk:      clock.System(),
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
	return m.flows.len()
}

// Flow returns a copy of one flow's counters.
func (m *Monitor) Flow(ft packet.FiveTuple) (FlowStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.flows.find(keyOf(ft).canonical())
	if !ok {
		return FlowStats{}, false
	}
	return m.flows.row(n).stats(), true
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
// returns the notifications it raised. It makes three passes. The first
// parses each run's first frame and records its flow (every frame is its own
// run with signatures set: a signature is searched for in each frame's own
// payload, which only a parse of that frame yields). The second finds or
// adds every recorded flow's row in one tight loop, so the batch's index
// misses can overlap. The third accounts each run's frames on its row, in
// frame order. The clock is read at most once per batch, and a row number is
// read only by the call that resolved it, so neither outlives the lock every
// import takes.
func (m *Monitor) accountLocked(frames [][]byte) (notes []nf.Notification) {
	var (
		now   time.Time
		nowNS int64
	)
	clock := func() time.Time {
		if now.IsZero() {
			now = m.clk.Now()
			nowNS = unixNano(now)
		}
		return now
	}
	note := func(sev nf.Severity, msg string) {
		notes = append(notes, nf.Notification{Severity: sev, NF: m.name, Kind: "counter", Message: msg, At: clock()})
	}

	starts := m.starts[:0]
	var run packet.Run
	for i, frame := range frames {
		if run.Continues(frame) {
			continue
		}
		s := runStart{at: i, sig: -1}
		if m.parser.Parse(frame) == nil {
			if s.key, s.flow = parsedKey(&m.parser); s.flow {
				if len(m.signatures) == 0 {
					run.Start(frame)
				} else {
					s.sig = slices.IndexFunc(m.signatures, func(sig []byte) bool {
						return bytes.Contains(m.parser.TransportPayload(), sig)
					})
				}
			}
		}
		starts = append(starts, s)
	}
	m.starts = starts

	for i := range starts {
		s := &starts[i]
		if !s.flow {
			continue
		}
		var added bool
		if s.row, added = m.flows.upsert(s.key.canonical()); added {
			clock()
			m.flows.row(s.row).windowStart = nowNS
		}
	}

	m.total += uint64(len(frames))
	for j := range starts {
		s := &starts[j]
		if !s.flow {
			continue
		}
		end := len(frames)
		if j+1 < len(starts) {
			end = starts[j+1].at
		}
		r := m.flows.row(s.row)
		for _, frame := range frames[s.at:end] {
			m.seq++
			r.seq = m.seq
			r.packets++
			r.bytes += uint64(len(frame))

			if m.ppsAlert > 0 {
				// A zero start, the zero time, is always a second past.
				if clock(); r.windowStart <= nowNS-int64(time.Second) {
					r.windowStart = nowNS
					r.windowCount = 0
					r.alerted = false
				}
				r.windowCount++
				if r.windowCount > m.ppsAlert && !r.alerted {
					r.alerted = true
					m.alerts++
					note(nf.SevCritical, "flow "+s.key.tuple().String()+" exceeded "+strconv.FormatUint(m.ppsAlert, 10)+" pps")
				}
			}
			if s.sig >= 0 {
				m.sigHits++
				note(nf.SevWarning, "signature "+strconv.Quote(string(m.signatures[s.sig]))+" in flow "+s.key.tuple().String())
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
		"tracked_flows":  uint64(m.flows.len()),
		"pps_alerts":     m.alerts,
		"signature_hits": m.sigHits,
	}
}

// A monitor's state is its totals (frames, pps alerts, signature hits:
// uvarints), then the count and the flows in key order: the canonical
// five-tuple (proto u8, IP, port u16, IP, port u16), packets and bytes
// (uvarints), window start (time), window count (uvarint), alerted (bool),
// dirty epoch (uvarint). Flows are keyed by the tuple itself, so accounting
// continuity survives migration.

// ExportDelta implements nf.Stateful: flows updated after epoch
// `since` (everything for since == 0) plus the aggregate totals, which are
// tiny and therefore shipped every round. Flows are never evicted, so the
// upsert-only delta is exact.
func (m *Monitor) ExportDelta(since uint64) ([]byte, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]*row, 0, m.flows.len())
	for n := range uint32(m.flows.len()) {
		if r := m.flows.row(n); r.seq > since {
			rows = append(rows, r)
		}
	}
	slices.SortFunc(rows, func(a, b *row) int { return a.key.compare(b.key) })
	w := make(nf.RecordWriter, 0, 32+flowBytes*len(rows))
	w.Uvarint(m.total)
	w.Uvarint(m.alerts)
	w.Uvarint(m.sigHits)
	w.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		ft := r.key.tuple()
		w.Uint8(ft.Proto)
		w.IP(ft.Src.Addr)
		w.Uint16(ft.Src.Port)
		w.IP(ft.Dst.Addr)
		w.Uint16(ft.Dst.Port)
		w.Uvarint(r.packets)
		w.Uvarint(r.bytes)
		w.Time(timeOf(r.windowStart))
		w.Uvarint(r.windowCount)
		w.Bool(r.alerted)
		w.Uvarint(r.seq)
	}
	return w, m.seq, nil
}

// flowBytes is a flow's record with two-byte counters and epoch.
const flowBytes = 13 + 2 + 2 + 8 + 1 + 1 + 2

// ImportDelta implements nf.Stateful. It decodes a blob and, only if all of
// it is sound, upserts its flows into the live table and adopts its totals,
// which are absolute, advancing the local dirty epoch past every imported
// stamp.
func (m *Monitor) ImportDelta(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := nf.NewRecordReader(data)
	total, alerts, sigHits := r.Uvarint(), r.Uvarint(), r.Uvarint()
	flows := make([]row, r.Count())
	for i := range flows {
		flows[i] = row{
			key: keyOf(packet.FiveTuple{
				Proto: r.Uint8(),
				Src:   packet.Endpoint{Addr: r.IP(), Port: r.Uint16()},
				Dst:   packet.Endpoint{Addr: r.IP(), Port: r.Uint16()},
			}),
			packets:     r.Uvarint(),
			bytes:       r.Uvarint(),
			windowStart: unixNano(r.Time()),
			windowCount: r.Uvarint(),
			alerted:     r.Bool(),
			seq:         r.Uvarint(),
		}
		if i > 0 && flows[i-1].key.compare(flows[i].key) >= 0 {
			return fmt.Errorf("%w: counter flows out of key order", nf.ErrBadRecord)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	m.total, m.alerts, m.sigHits = total, alerts, sigHits
	for _, f := range flows {
		m.seq = max(m.seq, f.seq)
		n, _ := m.flows.upsert(f.key)
		*m.flows.row(n) = f
	}
	return nil
}

var _ nf.Stateful = (*Monitor)(nil)

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
