package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/metrics"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
)

// Roaming workloads: one client streams 1 kHz CBR to the server while
// ping-ponging between two cells; its stateful chain follows it over the
// real TCP control plane. One handoff at a time, nothing contending:
// critical-path latency, not throughput.

const (
	cbrRate     = 1000 // frames/s
	cbrPort     = 7000
	natSeedSize = 1000
	roamTimeout = 10 * time.Second
)

type roamSpec struct {
	name     string
	strategy manager.Strategy
}

var roamSpecs = []roamSpec{
	{name: "roam_stateful", strategy: manager.StrategyStateful},
	{name: "roam_live", strategy: manager.StrategyLive},
}

// arrival is one CBR frame reaching the server.
type arrival struct {
	seq       uint32
	at        int64 // ns since the sink was created
	rewritten bool  // carried the chain's NAT source address
}

// roamWindow is the CBR sequence range [from, to) sent during one roam,
// from its Attach call up to the next roam's.
type roamWindow struct{ from, to uint32 }

// roamGap is what the wire saw of one roam.
type roamGap struct {
	lost        int           // frames of the window that never arrived
	unrewritten int           // arrived without passing the chain
	unserved    time.Duration // stream time those frames stand for: the roam's gap
	stall       time.Duration // longest silence between consecutive arrivals of the window
}

// accountRoams attributes an arrival log to roam windows. A frame that was
// lost or arrived un-rewritten was not served by the chain; it stands for
// the stretch of the stream up to the next frame's send time (sentAt, ns,
// indexed by sequence number; one nominal interval where the next frame
// was never sent), and a roam's gap is the sum of those stretches — the
// time the client's traffic was outside its chain, seen from the wire.
// Arrival order does not matter for that accounting (a reordered frame is
// a delivered frame) and duplicates count once; the stall is taken over
// arrivals in the order they came.
func accountRoams(log []arrival, windows []roamWindow, sentAt []int64) []roamGap {
	out := make([]roamGap, len(windows))
	if len(windows) == 0 {
		return out
	}
	base, end := windows[0].from, windows[len(windows)-1].to
	// state per sequence number: 0 unseen, 1 rewritten, 2 un-rewritten.
	state := make([]uint8, end-base)
	windowOf := func(seq uint32) int {
		for i, w := range windows {
			if seq >= w.from && seq < w.to {
				return i
			}
		}
		return -1
	}
	lastAt := make([]int64, len(windows))
	for _, a := range log {
		if a.seq < base || a.seq >= end {
			continue
		}
		w := windowOf(a.seq)
		if lastAt[w] != 0 {
			if d := time.Duration(a.at - lastAt[w]); d > out[w].stall {
				out[w].stall = d
			}
		}
		lastAt[w] = a.at
		if state[a.seq-base] != 0 {
			continue
		}
		if a.rewritten {
			state[a.seq-base] = 1
		} else {
			state[a.seq-base] = 2
		}
	}
	for i, w := range windows {
		for seq := w.from; seq < w.to; seq++ {
			switch state[seq-base] {
			case 0:
				out[i].lost++
			case 2:
				out[i].unrewritten++
			default:
				continue
			}
			stretch := time.Second / cbrRate
			if int(seq)+1 < len(sentAt) {
				stretch = time.Duration(sentAt[seq+1] - sentAt[seq])
			}
			out[i].unserved += stretch
		}
	}
	return out
}

// cbrSink logs arrivals into a buffer sized up front.
type cbrSink struct {
	t0  time.Time
	mu  sync.Mutex
	log []arrival
}

func (s *cbrSink) handle(src, _ packet.Endpoint, payload []byte) []byte {
	if len(payload) < 4 {
		return nil
	}
	a := arrival{seq: binary.BigEndian.Uint32(payload), at: int64(time.Since(s.t0)), rewritten: src.Addr == natIP}
	s.mu.Lock()
	if len(s.log) < cap(s.log) {
		s.log = append(s.log, a)
	}
	s.mu.Unlock()
	return nil
}

func (s *cbrSink) snapshot() []arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]arrival(nil), s.log...)
}

// cbrGen is the single generator goroutine: one frame per millisecond on
// an absolute schedule (a late tick is sent at once, never skipped).
type cbrGen struct {
	host   *netem.Host
	seq    atomic.Uint32 // next sequence number to send
	sentAt []int64       // ns since t0 per sequence number; read after close
	stop   chan struct{}
	done   chan struct{}
}

// startCBR streams until close, recording up to maxFrames send times.
func startCBR(host *netem.Host, payload []byte, t0 time.Time, maxFrames int) *cbrGen {
	g := &cbrGen{host: host, sentAt: make([]int64, 0, maxFrames),
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		buf := append([]byte(nil), payload...)
		dst := packet.Endpoint{Addr: serverIP, Port: cbrPort}
		interval := time.Second / cbrRate
		next := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-timer.C:
			}
			binary.BigEndian.PutUint32(buf, g.seq.Load())
			if len(g.sentAt) < cap(g.sentAt) {
				g.sentAt = append(g.sentAt, int64(time.Since(t0)))
			}
			// A send while the client is between cells fails; that frame is
			// lost on the wire, which is exactly what the gap counts.
			_ = g.host.SendUDP(dst, 6000, buf)
			g.seq.Add(1)
			next = next.Add(interval)
			timer.Reset(time.Until(next))
		}
	}()
	return g
}

func (g *cbrGen) close() {
	close(g.stop)
	<-g.done
}

// roamBench is one built roaming workload: chain attached and seeded,
// both stations warm, CBR running.
type roamBench struct {
	sys  *core.System
	sink *cbrSink
	gen  *cbrGen
	rec  *recorder

	cold     time.Duration // the first roam, to a station without the images
	sentAt   []int64       // the generator's send times, once it has stopped
	basePool int64
	at       int // index into roamCells of the client's current cell
}

var (
	roamCells    = []topology.CellID{"cell-a", "cell-b"}
	roamStations = []topology.StationID{"st-a", "st-b"}
)

func roamSystemChain() manager.ChainSpec {
	return manager.ChainSpec{Name: "chain", Functions: roamChain()}
}

// setupRoam builds the system, seeds natSeedSize NAT flows of state into
// the chain, starts the CBR stream and performs the two discarded warm-up
// roams (the first of them cold).
func setupRoam(spec roamSpec, cfg runConfig, rec *recorder) (*roamBench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	seedPorts := genNATSeedPorts(rng, natSeedSize)
	payload := make([]byte, 128-42)
	rng.Read(payload)

	b := &roamBench{rec: rec, basePool: packet.FramePoolOutstanding()}
	sys, err := core.NewSystem(systemConfig(spec.strategy))
	if err != nil {
		return nil, err
	}
	b.sys = sys
	fail := func(err error) (*roamBench, error) {
		b.close()
		return nil, err
	}
	if err := sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		return fail(err)
	}
	if err := sys.Topo.Attach("phone", roamCells[0]); err != nil {
		return fail(err)
	}
	if err := sys.WaitClientAt("phone", roamStations[0], roamTimeout); err != nil {
		return fail(err)
	}
	if err := sys.AttachChain("phone", roamSystemChain()); err != nil {
		return fail(err)
	}
	if err := sys.WaitChainOn(roamStations[0], "chain", roamTimeout); err != nil {
		return fail(err)
	}
	if err := seedNAT(sys, roamStations[0], seedPorts); err != nil {
		return fail(err)
	}
	// Room for the whole run's CBR frames at twice the nominal length.
	maxFrames := cbrRate * int(2*cfg.budget.Seconds()+30)
	b.sink = &cbrSink{t0: time.Now(), log: make([]arrival, 0, maxFrames)}
	server := sys.AddServer("web", serverMAC, serverIP)
	server.Learn(phoneIP, phoneMAC)
	server.HandleUDP(cbrPort, b.sink.handle)
	phone := sys.ClientHost("phone")
	phone.Learn(serverIP, serverMAC)
	if err := primePath(server, phone); err != nil {
		return fail(err)
	}
	b.gen = startCBR(phone, payload, b.sink.t0, maxFrames)

	t0 := time.Now()
	if _, err := b.roam(); err != nil {
		return fail(fmt.Errorf("cold warm-up roam: %w", err))
	}
	b.cold = time.Since(t0)
	time.Sleep(cfg.dwell)
	if _, err := b.roam(); err != nil {
		return fail(fmt.Errorf("warm-up roam: %w", err))
	}
	time.Sleep(cfg.dwell)
	return b, nil
}

// seedNAT pushes one outbound frame per port through the live chain so
// its NAT holds that many mappings.
func seedNAT(sys *core.System, station topology.StationID, ports []uint16) error {
	chain, err := sys.Agent(station).ChainFunction("chain")
	if err != nil {
		return err
	}
	return seedNATChain(chain, ports)
}

func seedNATChain(chain *nf.Chain, ports []uint16) error {
	for _, p := range ports {
		frame := packet.BuildUDP(phoneMAC, serverMAC, phoneIP, serverIP, p, 53, nil)
		if out := chain.Process(nf.Outbound, frame); len(out.Forward) != 1 {
			return fmt.Errorf("NAT seed flow from port %d did not pass the chain", p)
		}
	}
	return nil
}

func (b *roamBench) close() {
	if b.gen != nil {
		b.gen.close()
	}
	b.sys.Close()
}

// roamTiming is what the control plane showed of one roam.
type roamTiming struct {
	window   roamWindow // to is filled in when the next roam starts
	complete time.Duration
	assoc    time.Duration // Attach until the manager saw the client at the new station (traced pass only)
}

// roam moves the client to the other cell and waits until the manager has
// it there and the chain runs on the new station.
func (b *roamBench) roam() (roamTiming, error) {
	to := 1 - b.at
	rt := roamTiming{window: roamWindow{from: b.gen.seq.Load()}}
	root := b.rec.start(nil, "roam")
	defer root.end()
	t0 := time.Now()
	sp := b.rec.start(root, "topology.Attach")
	err := b.sys.Topo.Attach("phone", roamCells[to])
	sp.end()
	if err != nil {
		return rt, err
	}
	if b.rec != nil {
		// Diagnostic only: when did the association reach the manager?
		sp := b.rec.start(root, "manager.ClientStation poll")
		for deadline := t0.Add(roamTimeout); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			if st, ok := b.sys.Manager.ClientStation("phone"); ok && st == string(roamStations[to]) {
				break
			}
		}
		sp.end()
		rt.assoc = time.Since(t0)
	}
	sp = b.rec.start(root, "core.WaitClientAt")
	err = b.sys.WaitClientAt("phone", roamStations[to], roamTimeout)
	sp.end()
	if err != nil {
		return rt, err
	}
	sp = b.rec.start(root, "core.WaitChainOn")
	err = b.sys.WaitChainOn(roamStations[to], "chain", roamTimeout)
	sp.end()
	if err != nil {
		return rt, err
	}
	rt.complete = time.Since(t0)
	b.at = to
	return rt, nil
}

// timedRoams ping-pongs until the budget is spent. It returns the roams'
// timings with their CBR windows closed, and the process CPU each cost.
func (b *roamBench) timedRoams(cfg runConfig) (timings []roamTiming, cpu []time.Duration, err error) {
	start := time.Now()
	for n := 0; !cfg.opsDone(n, time.Since(start)); n++ {
		c0 := cpuTime()
		rt, rerr := b.roam()
		if n > 0 {
			timings[n-1].window.to = rt.window.from
		}
		timings = append(timings, rt)
		if rerr != nil {
			return timings, cpu, fmt.Errorf("roam %d: %w", n, rerr)
		}
		time.Sleep(cfg.dwell)
		cpu = append(cpu, cpuTime()-c0)
	}
	timings[len(timings)-1].window.to = b.gen.seq.Load()
	return timings, cpu, nil
}

// verify stops the stream and applies the end-of-run checks.
func (b *roamBench) verify(roams int) error {
	b.gen.close()
	b.sentAt, b.gen = b.gen.sentAt, nil
	time.Sleep(20 * time.Millisecond) // last frames reach the sink
	var problems []error
	if v := b.sys.Audit(); len(v) != 0 {
		problems = append(problems, fmt.Errorf("audit: %v", v))
	}
	migs := b.sys.Manager.Migrations()
	for _, m := range migs {
		if m.Err != "" {
			problems = append(problems, fmt.Errorf("migration %s->%s failed: %s", m.From, m.To, m.Err))
		}
	}
	if want := roams + 2; len(migs) != want {
		problems = append(problems, fmt.Errorf("%d migrations recorded, want %d", len(migs), want))
	}
	if err := waitPoolBalanced(b.basePool); err != nil {
		problems = append(problems, err)
	}
	return errors.Join(problems...)
}

// runRoam runs a roaming workload: cfg.setups rounds of set-up, timed
// roams, checks and tear-down. With a recorder (the traced pass) it also
// reports the manager's own view of the same roams.
func runRoam(spec roamSpec, cfg runConfig, rec *recorder) (*workloadResult, error) {
	res := newResult(spec.name)
	var setups, perSec, completeMs, gapMs, cpuUs, stallMs, assocMs, coldMs []float64
	var roams, cbrFrames, lost uint64
	var view managerView
	for round := 0; round < cfg.setups; round++ {
		t0 := time.Now()
		b, err := setupRoam(spec, cfg, rec)
		if err != nil {
			return res.fail(roams+cbrFrames+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		timings, cpu, err := b.timedRoams(cfg)
		err = errors.Join(err, b.verify(len(timings)))
		roams += uint64(len(timings))
		if n := len(timings); n > 0 {
			cbrFrames += uint64(timings[n-1].window.to - timings[0].window.from)
		}
		if err != nil {
			b.close()
			return res.fail(roams+cbrFrames, err)
		}
		windows := make([]roamWindow, len(timings))
		for i, t := range timings {
			windows[i] = t.window
		}
		gaps := accountRoams(b.sink.snapshot(), windows, b.sentAt)
		for i, t := range timings {
			perSec = append(perSec, 1/t.complete.Seconds())
			completeMs = append(completeMs, ms(t.complete))
			gapMs = append(gapMs, ms(gaps[i].unserved))
			cpuUs = append(cpuUs, float64(cpu[i].Microseconds()))
			stallMs = append(stallMs, ms(gaps[i].stall))
			assocMs = append(assocMs, ms(t.assoc))
			lost += uint64(gaps[i].lost)
		}
		coldMs = append(coldMs, ms(b.cold))
		view.add(b.sys.Manager, len(timings))
		b.close()
	}
	res.Attempted = roams + cbrFrames
	res.set("setup_s", summarize("s", setups))
	res.set("ops_per_sec", summarize("1/s", perSec))
	res.set("cpu_us_per_op", summarize("us", cpuUs))
	res.set("wait_p50_ms", summarize("ms", gapMs))
	res.set("roam_complete_p50_ms", summarize("ms", completeMs))
	res.alias("roams_per_sec (1000 / roam_complete_p50_ms)", "ops_per_sec")
	res.alias("cpu_us_per_roam", "cpu_us_per_op")
	res.alias("roam_gap_p50_ms", "wait_p50_ms")
	res.note("closed loop of one roam at a time, %d roams, %d ms dwell, %d Hz CBR, real loopback TCP control plane, in-process veths (no real link)",
		roams, cfg.dwell.Milliseconds(), cbrRate)
	res.note("%s", tailNote("roam complete", "ms", completeMs))
	res.note("%s", tailNote("roam gap", "ms", gapMs))
	res.note("%d of %d CBR frames lost on the wire during roams (counted in the gap, not as failures)", lost, cbrFrames)
	if rec != nil {
		view.report(res)
		res.set("core.roam_stall_p50_ms", summarize("ms", stallMs))
		res.set("core.assoc_to_manager_ms", summarize("ms", assocMs))
		res.set("core.roam_cold_complete_ms", summarize("ms", coldMs))
	}
	return res, nil
}

// managerView collects what the manager's own reports and histograms say
// about the timed roams, to be read beside the figures taken from outside.
type managerView struct {
	total, down, state, rounds []float64
	latency                    metrics.HistogramSnapshot // of the last round
}

// add folds in the last n migrations of one round's manager.
func (v *managerView) add(mgr *manager.Manager, n int) {
	migs := mgr.Migrations()
	for _, m := range migs[len(migs)-n:] {
		v.total = append(v.total, ms(m.Total))
		v.down = append(v.down, ms(m.Downtime))
		v.state = append(v.state, float64(m.StateBytes))
		v.rounds = append(v.rounds, float64(m.Rounds))
	}
	v.latency = mgr.MetricsSnapshot().Histograms["handoff.latency_ms"]
}

func (v *managerView) report(res *workloadResult) {
	res.set("manager.migration_total_p50_ms", summarize("ms", v.total))
	res.set("manager.migration_downtime_p50_ms", summarize("ms", v.down))
	res.set("manager.state_bytes_per_roam", summarize("B", v.state))
	res.set("manager.precopy_rounds", summarize("count", v.rounds))
	res.set("manager.handoff_latency_p50_ms", Metric{Value: v.latency.P50, Unit: "ms", N: int(v.latency.Count)})
	res.set("manager.handoff_latency_p99_ms", Metric{Value: v.latency.P99, Unit: "ms", N: int(v.latency.Count)})
}
