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
	"encoding/json"
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
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	// window tracking for the pps heuristic
	WindowStart time.Time `json:"window_start"`
	WindowCount uint64    `json:"window_count"`
	Alerted     bool      `json:"alerted"`
	Seq         uint64    `json:"seq,omitempty"`
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

// Process implements nf.Function: a batch of one, its output sized for the
// frame passing.
func (m *Monitor) Process(dir nf.Direction, frame []byte) nf.Output {
	out := nf.BatchOutput{Forward: make([][]byte, 0, 1)}
	m.ProcessBatch(dir, [][]byte{frame}, &out)
	return nf.Output(out)
}

// ProcessBatch implements nf.BatchProcessor: the monitor never drops, so
// the batch passes through whole under a single lock acquisition. What the
// batch raised is delivered after the lock is released, in order — the
// notifier is an agent callback that may call back into the monitor.
func (m *Monitor) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.BatchOutput) {
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

var _ nf.BatchProcessor = (*Monitor)(nil)

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

type monState struct {
	Flows   map[string]FlowStats `json:"flows"`
	Total   uint64               `json:"total"`
	Alerts  uint64               `json:"alerts"`
	SigHits uint64               `json:"sig_hits"`
}

func flowKey(ft packet.FiveTuple) string {
	return ft.String()
}

// ExportState implements container.StateHandler. Flow keys serialize via
// their string form; import restores counters keyed by the same strings,
// so accounting continuity survives migration.
func (m *Monitor) ExportState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := monState{Flows: make(map[string]FlowStats, len(m.flows)), Total: m.total, Alerts: m.alerts, SigHits: m.sigHits}
	for ft, fs := range m.flows {
		st.Flows[flowKey(ft)] = *fs
	}
	return json.Marshal(st)
}

// ImportState implements container.StateHandler. Because map keys round-
// trip through strings, restored flows are tracked under parsed tuples
// reconstructed on the next matching packet; totals restore exactly.
func (m *Monitor) ImportState(data []byte) error {
	var st monState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flows = make(map[packet.FiveTuple]*FlowStats, len(st.Flows))
	m.mergeLocked(st)
	return nil
}

// ExportDelta implements nf.DeltaStateful: flows updated after epoch
// `since` (everything for since == 0) plus the aggregate totals, which are
// tiny and therefore shipped every round. Flows are never evicted, so the
// upsert-only delta is exact.
func (m *Monitor) ExportDelta(since uint64) ([]byte, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := monState{Flows: make(map[string]FlowStats), Total: m.total, Alerts: m.alerts, SigHits: m.sigHits}
	for ft, fs := range m.flows {
		if fs.Seq > since {
			st.Flows[flowKey(ft)] = *fs
		}
	}
	data, err := json.Marshal(st)
	return data, m.seq, err
}

// ImportDelta implements nf.DeltaStateful by merging exported flows into
// the live table; totals are absolute and replace the local aggregates.
func (m *Monitor) ImportDelta(data []byte) error {
	var st monState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mergeLocked(st)
	return nil
}

// mergeLocked upserts st's flows and adopts its totals, advancing the
// local dirty epoch past every imported stamp. Called with mu held.
func (m *Monitor) mergeLocked(st monState) {
	m.total, m.alerts, m.sigHits = st.Total, st.Alerts, st.SigHits
	for key, fs := range st.Flows {
		if ft, ok := parseFlowKey(key); ok {
			if fs.Seq > m.seq {
				m.seq = fs.Seq
			}
			copyFS := fs
			m.flows[ft] = &copyFS
		}
	}
}

// parseFlowKey reverses FiveTuple.String: "proto a:b->c:d".
func parseFlowKey(s string) (packet.FiveTuple, bool) {
	var ft packet.FiveTuple
	protoStr, rest, ok := strings.Cut(s, " ")
	if !ok {
		return ft, false
	}
	switch protoStr {
	case "tcp":
		ft.Proto = packet.ProtoTCP
	case "udp":
		ft.Proto = packet.ProtoUDP
	case "icmp":
		ft.Proto = packet.ProtoICMP
	default:
		return ft, false
	}
	srcStr, dstStr, ok := strings.Cut(rest, "->")
	if !ok {
		return ft, false
	}
	parse := func(ep string) (packet.Endpoint, bool) {
		ipStr, portStr, ok := strings.Cut(ep, ":")
		if !ok {
			return packet.Endpoint{}, false
		}
		ip, ok := packet.ParseIP(ipStr)
		if !ok {
			return packet.Endpoint{}, false
		}
		port, err := strconv.ParseUint(portStr, 10, 16)
		if err != nil {
			return packet.Endpoint{}, false
		}
		return packet.Endpoint{Addr: ip, Port: uint16(port)}, true
	}
	var okS, okD bool
	ft.Src, okS = parse(srcStr)
	ft.Dst, okD = parse(dstStr)
	return ft, okS && okD
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
