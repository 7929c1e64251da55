package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gnf/internal/agent"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/traffic"
)

// Dataplane workloads: a closed loop of windowFrames frames in flight from
// the client's veth, through the station switch, the chain, the backhaul
// and into the server host. Everything is in-process veths; no frame
// crosses a real link.

const (
	loadHeaderLen = traffic.LoadPayloadLen
	windowFrames  = 256
	grantEvery    = 32 // the sink returns credits every grantEvery deliveries
	stallTimeout  = 5 * time.Second
	warmupSlice   = 500 * time.Millisecond
	pacedRate     = 20000 // frames/s of the traced pass's open-loop probe
)

type fwdSpec struct {
	name     string
	frameLen int
	flows    int
	trains   bool // 32-frame same-flow trains via SendBatch, else per-frame Send round-robin
	chain    []agent.NFSpec
	rewrites bool // chain holds the NAT: delivered frames must carry its source address
}

var fwdSpecs = []fwdSpec{
	{name: "fwd_fast_64B", frameLen: 64, flows: 256, trains: true, chain: counterChain()},
	{name: "fwd_scatter_64B", frameLen: 64, flows: 100000, chain: counterChain()},
	{name: "fwd_chain5_1500B", frameLen: 1500, flows: 256, trains: true, chain: chain5(), rewrites: true},
}

// window is the closed loop's credit account. The generator acquires
// credits before sending and blocks on the grant channel when it has
// none; the sink grants them back. There is no sleep-poll and no spin:
// a blocked generator costs nothing, so CPU per frame stays meaningful.
type window struct {
	size    int
	credits int
	grants  chan int
	timeout time.Duration
	stall   *time.Timer
}

func newWindow(size int, timeout time.Duration) *window {
	return &window{
		size: size, credits: size, timeout: timeout,
		// At most size/grantEvery grants can be outstanding, so grant never blocks.
		grants: make(chan int, size/grantEvery+1),
		stall:  time.NewTimer(timeout),
	}
}

var errStalled = errors.New("credit window stalled")

// acquire takes n credits, waiting for deliveries if the window is full.
func (w *window) acquire(n int) error {
	for w.credits < n {
		w.stall.Reset(w.timeout)
		select {
		case c := <-w.grants:
			w.credits += c
		case <-w.stall.C:
			return fmt.Errorf("%w: no delivery for %s with %d frames in flight", errStalled, w.timeout, w.size-w.credits)
		}
	}
	w.credits -= n
	return nil
}

func (w *window) grant(n int) { w.grants <- n }

// drain waits until every frame sent has been delivered.
func (w *window) drain() error {
	if err := w.acquire(w.size); err != nil {
		return err
	}
	w.credits = w.size
	return nil
}

// fwdSink is the server side: continuity accounting, the NAT-rewrite
// check, transit samples from stamped frames, and credit grants.
type fwdSink struct {
	acct     *traffic.Accountant
	win      *window
	rewrites bool

	delivered   atomic.Uint64
	unrewritten atomic.Uint64
	sinceGrant  int // delivery goroutine only

	mu      sync.Mutex
	transit *sampleRing // ns, frames that carry a send stamp
}

func (s *fwdSink) handle(src, _ packet.Endpoint, payload []byte) []byte {
	s.acct.Observe(payload)
	if s.rewrites && src.Addr != natIP {
		s.unrewritten.Add(1)
	}
	if len(payload) >= loadHeaderLen {
		if stamp := int64(binary.BigEndian.Uint64(payload[8:16])); stamp != 0 {
			d := time.Now().UnixNano() - stamp
			s.mu.Lock()
			s.transit.add(float64(d))
			s.mu.Unlock()
		}
	}
	s.delivered.Add(1)
	s.sinceGrant++
	if s.sinceGrant == grantEvery {
		s.sinceGrant = 0
		s.win.grant(grantEvery)
	}
	return nil
}

// takeTransit returns the transit samples since the last call, sorted.
func (s *fwdSink) takeTransit() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.transit.sorted()
	s.transit.reset()
	return out
}

// fwdGen is the single generator goroutine's state: it stamps pooled
// frames from the template and sends them grantEvery at a time.
type fwdGen struct {
	ep     *netem.Endpoint
	tmpl   []byte
	flows  []flowTuple
	seqs   []uint32
	trains bool
	win    *window
	batch  [][]byte
	next   int
	sent   uint64
	rec    *recorder
}

func (g *fwdGen) stamp(f []byte, flow int, sentNanos int64) []byte {
	f = append(f[:0], g.tmpl...)
	binary.BigEndian.PutUint16(f[34:], g.flows[flow].src)
	binary.BigEndian.PutUint16(f[36:], g.flows[flow].dst)
	traffic.PutLoadPayload(f[42:], uint32(flow), g.seqs[flow], sentNanos)
	g.seqs[flow] = (g.seqs[flow] + 1) & (traffic.DefaultSeqRing - 1)
	return f
}

// unit sends grantEvery frames: one same-flow train through SendBatch, or
// grantEvery per-frame Sends each on the next flow. The first frame
// carries stampNanos (0 = unstamped) for the sink's transit sample.
func (g *fwdGen) unit(stampNanos int64) error {
	if err := g.win.acquire(grantEvery); err != nil {
		return err
	}
	if g.trains {
		sp := g.rec.start(nil, "netem.Endpoint.SendBatch")
		packet.BorrowFrames(g.batch)
		for j := range g.batch {
			g.batch[j] = g.stamp(g.batch[j], g.next, stampNanos)
			stampNanos = 0
		}
		accepted := g.ep.SendBatch(g.batch)
		sp.end()
		g.sent += uint64(accepted)
		g.next = (g.next + 1) % len(g.flows)
		if accepted != len(g.batch) {
			return fmt.Errorf("client veth accepted %d of %d frames", accepted, len(g.batch))
		}
		return nil
	}
	sp := g.rec.start(nil, "netem.Endpoint.Send x32")
	defer sp.end()
	for j := 0; j < grantEvery; j++ {
		if err := g.sendOne(stampNanos); err != nil {
			return err
		}
		stampNanos = 0
	}
	return nil
}

// sendOne sends one frame of the next flow through per-frame Send. The
// caller holds the credit.
func (g *fwdGen) sendOne(stampNanos int64) error {
	f := g.stamp(packet.BorrowFrame(), g.next, stampNanos)
	g.next = (g.next + 1) % len(g.flows)
	if err := g.ep.Send(f); err != nil {
		return fmt.Errorf("client veth send: %w", err)
	}
	g.sent++
	return nil
}

// runFor keeps the window full for d.
func (g *fwdGen) runFor(d time.Duration) error {
	for end := time.Now().Add(d); ; {
		now := time.Now()
		if !now.Before(end) {
			return nil
		}
		if err := g.unit(now.UnixNano()); err != nil {
			return err
		}
	}
}

// runPaced sends at a fixed rate for d regardless of deliveries — an open
// loop. Each frame is stamped with the time it was *due*, so the sink's
// transit samples include whatever a stall imposed on later frames; the
// generator's own lateness is returned (ns). The generator busy-waits for
// each due time: at 50 µs spacing no sleep is fine enough, and this probe
// measures latency, not CPU.
func (g *fwdGen) runPaced(rate int, d time.Duration) (late []float64, err error) {
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	n := int(d / interval)
	late = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		now := time.Now()
		for now.Before(due) {
			now = time.Now()
		}
		late = append(late, float64(now.Sub(due)))
		if err := g.pacedSend(due.UnixNano()); err != nil {
			return nil, err
		}
	}
	// Top the count up to a whole grant so drain's arithmetic holds.
	for g.sent%grantEvery != 0 {
		if err := g.pacedSend(0); err != nil {
			return nil, err
		}
	}
	return late, nil
}

func (g *fwdGen) pacedSend(stampNanos int64) error {
	if err := g.win.acquire(1); err != nil {
		return err
	}
	return g.sendOne(stampNanos)
}

// fwdBench is one built dataplane workload, warmed and ready to time.
type fwdBench struct {
	sys  *core.System
	gen  *fwdGen
	sink *fwdSink

	clientEP, serverEP *netem.Endpoint
	baseDrops          dropCounters
	basePool           int64
}

// dropCounters are the loss signals a run must leave untouched.
type dropCounters struct {
	clientEP, serverEP, stationSw uint64
}

func (b *fwdBench) drops() dropCounters {
	return dropCounters{
		clientEP:  b.clientEP.Stats().Drops + b.clientEP.Peer().Stats().Drops,
		serverEP:  b.serverEP.Stats().Drops + b.serverEP.Peer().Stats().Drops,
		stationSw: b.sys.Agent("st-a").Switch().Stats().Dropped,
	}
}

// setupFwd brings the system up, attaches the chain, primes the path and
// runs the discarded warm-up slice.
func setupFwd(spec fwdSpec, seed int64, warm time.Duration, rec *recorder) (*fwdBench, error) {
	rng := rand.New(rand.NewSource(seed))
	flows := genFlows(rng, spec.flows)
	tmpl := genFrameTemplate(rng, spec.frameLen)

	basePool := packet.FramePoolOutstanding()
	sys, err := core.NewSystem(systemConfig(manager.StrategyStateful))
	if err != nil {
		return nil, err
	}
	b := &fwdBench{sys: sys, basePool: basePool}
	if err := b.attach(spec); err != nil {
		sys.Close()
		return nil, err
	}
	win := newWindow(windowFrames, stallTimeout)
	b.sink = &fwdSink{
		acct:     traffic.NewAccountant(spec.flows, 0, nil),
		win:      win,
		rewrites: spec.rewrites,
		transit:  newSampleRing(1 << 16),
	}
	server := b.sys.AddServer("web", serverMAC, serverIP)
	server.Learn(phoneIP, phoneMAC)
	server.HandleAnyUDP(b.sink.handle)
	phone := sys.ClientHost("phone")
	phone.Learn(serverIP, serverMAC)
	if err := primePath(server, phone); err != nil {
		sys.Close()
		return nil, err
	}
	b.clientEP, b.serverEP = phone.Endpoint(), server.Endpoint()
	b.gen = &fwdGen{
		ep: b.clientEP, tmpl: tmpl, flows: flows, seqs: make([]uint32, len(flows)),
		trains: spec.trains, win: win, batch: make([][]byte, grantEvery), rec: rec,
	}
	b.baseDrops = b.drops()
	if err := b.gen.runFor(warm); err != nil {
		sys.Close()
		return nil, err
	}
	if err := win.drain(); err != nil {
		sys.Close()
		return nil, err
	}
	b.sink.takeTransit()
	return b, nil
}

// primePath sends one datagram server -> client and waits for it to
// arrive: every switch on the way learns where the server lives, so the
// frames that follow are forwarded, never flooded.
func primePath(server, client *netem.Host) error {
	const port = 9
	arrived := make(chan struct{}, 1)
	client.HandleUDP(port, func(_, _ packet.Endpoint, _ []byte) []byte {
		select {
		case arrived <- struct{}{}:
		default:
		}
		return nil
	})
	if err := server.SendUDP(packet.Endpoint{Addr: client.IPAddr, Port: port}, port, []byte("prime")); err != nil {
		return err
	}
	select {
	case <-arrived:
		return nil
	case <-time.After(stallTimeout):
		return errors.New("priming datagram server -> client never arrived")
	}
}

func (b *fwdBench) attach(spec fwdSpec) error {
	if err := b.sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		return err
	}
	if err := b.sys.Topo.Attach("phone", "cell-a"); err != nil {
		return err
	}
	if err := b.sys.WaitClientAt("phone", "st-a", 10*time.Second); err != nil {
		return err
	}
	if err := b.sys.AttachChain("phone", manager.ChainSpec{Name: "chain", Functions: spec.chain}); err != nil {
		return err
	}
	return b.sys.WaitChainOn("st-a", "chain", 10*time.Second)
}

func (b *fwdBench) close() { b.sys.Close() }

// fwdSlice is what one timed slice measured.
type fwdSlice struct {
	frames     uint64
	wall, cpu  time.Duration
	transitP50 float64 // ns
}

// timedSlices runs n slices of d each and returns their measurements.
func (b *fwdBench) timedSlices(n int, d time.Duration) ([]fwdSlice, error) {
	out := make([]fwdSlice, 0, n)
	for i := 0; i < n; i++ {
		f0, c0, t0 := b.sink.delivered.Load(), cpuTime(), time.Now()
		if err := b.gen.runFor(d); err != nil {
			return out, err
		}
		sl := fwdSlice{frames: b.sink.delivered.Load() - f0, wall: time.Since(t0), cpu: cpuTime() - c0}
		tr := b.sink.takeTransit()
		sl.transitP50 = percentile(tr, 50)
		out = append(out, sl)
	}
	return out, nil
}

// verify drains the window and applies the end-of-run checks. It returns
// how many frames failed (lost, outside continuity, or un-rewritten) and
// an error describing any check that did not hold.
func (b *fwdBench) verify() (failed uint64, err error) {
	if err := b.gen.win.drain(); err != nil {
		return b.gen.sent - b.sink.delivered.Load(), err
	}
	rep := b.sink.acct.Report()
	failed = rep.Lost + rep.Late + rep.Malformed + b.sink.unrewritten.Load()
	if got := b.sink.delivered.Load(); got < b.gen.sent {
		failed += b.gen.sent - got
	}
	var problems []error
	if failed != 0 || rep.Received != b.gen.sent {
		problems = append(problems, fmt.Errorf("sent %d, accounted %d (lost %d, late %d, malformed %d, un-rewritten %d)",
			b.gen.sent, rep.Received, rep.Lost, rep.Late, rep.Malformed, b.sink.unrewritten.Load()))
	}
	if d := b.drops(); d != b.baseDrops {
		problems = append(problems, fmt.Errorf("drop counters moved: %+v -> %+v", b.baseDrops, d))
	}
	if v := b.sys.Audit(); len(v) != 0 {
		problems = append(problems, fmt.Errorf("audit: %v", v))
	}
	if n := len(b.sys.Manager.Migrations()); n != 0 {
		problems = append(problems, fmt.Errorf("%d handoffs during a dataplane workload", n))
	}
	if err := waitPoolBalanced(b.basePool); err != nil {
		problems = append(problems, err)
	}
	return failed, errors.Join(problems...)
}

// waitPoolBalanced gives delivery goroutines a moment to hand their last
// buffers back, then requires the frame pool to be where it started.
func waitPoolBalanced(base int64) error {
	var out int64
	for i := 0; i < 100; i++ {
		if out = packet.FramePoolOutstanding(); out == base {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("leaked pooled frames: %d outstanding, %d before the run", out, base)
}

// runFwd runs a dataplane workload: cfg.setups rounds of set-up, timed
// slices, checks and tear-down. With a recorder (the traced pass) it also
// reports what the live path's own counters say and runs the paced
// open-loop probe.
func runFwd(spec fwdSpec, cfg runConfig, rec *recorder) (*workloadResult, error) {
	res := newResult(spec.name)
	var (
		setups       []float64
		slices       []fwdSlice
		sw           netem.SwitchStats // station switch counters over the timed slices, summed over rounds
		dropsSeen    uint64
		sent, failed uint64
	)
	for round := 0; round < cfg.setups; round++ {
		t0 := time.Now()
		b, err := setupFwd(spec, cfg.seed, cfg.warmup, rec)
		if err != nil {
			return res.fail(sent+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		before := b.sys.Agent("st-a").Switch().Stats()
		timed, err := b.timedSlices(cfg.slices, cfg.sliceDur)
		after := b.sys.Agent("st-a").Switch().Stats()
		if err == nil && rec != nil && round == cfg.setups-1 {
			err = b.pacedProbe(res, cfg.sliceDur/2)
		}
		f, verr := b.verify()
		d := b.drops()
		b.close()
		sent, failed = sent+b.gen.sent, failed+f
		if err = errors.Join(err, verr); err != nil {
			return res.fail(sent, err)
		}
		slices = append(slices, timed...)
		sw.CacheHits += after.CacheHits - before.CacheHits
		sw.CacheMisses += after.CacheMisses - before.CacheMisses
		sw.BatchFrames += after.BatchFrames - before.BatchFrames
		sw.BatchRuns += after.BatchRuns - before.BatchRuns
		sw.Flooded += after.Flooded - before.Flooded
		dropsSeen += d.clientEP + d.serverEP + d.stationSw - b.baseDrops.clientEP - b.baseDrops.serverEP - b.baseDrops.stationSw
	}
	res.Attempted, res.Failed = sent, failed
	var fps, cpuUs, waitMs, util []float64
	for _, s := range slices {
		fps = append(fps, float64(s.frames)/s.wall.Seconds())
		cpuUs = append(cpuUs, float64(s.cpu.Nanoseconds())/1e3/float64(s.frames))
		waitMs = append(waitMs, s.transitP50/1e6)
		util = append(util, s.cpu.Seconds()/s.wall.Seconds()/float64(runtime.NumCPU()))
	}
	res.set("setup_s", summarize("s", setups))
	res.set("ops_per_sec", summarize("1/s", fps))
	res.set("cpu_us_per_op", summarize("us", cpuUs))
	res.set("wait_p50_ms", summarize("ms", waitMs))
	res.alias("frames_per_sec", "ops_per_sec")
	res.alias("cpu_us_per_frame", "cpu_us_per_op")
	res.alias("frame_transit_loaded_p50_ms", "wait_p50_ms")
	res.note("closed loop, %d frames in flight, %d B frames, %d flows, in-process veths (no real link), GOMAXPROCS=%d",
		windowFrames, spec.frameLen, spec.flows, runtime.GOMAXPROCS(0))
	if rec != nil {
		res.set("core.frame_cpu_ns", single("ns", median(cpuUs)*1e3))
		res.set("core.cpu_util", summarize("ratio", util))
		res.set("netem.cache_hit_ratio", single("ratio", ratio(sw.CacheHits, sw.CacheHits+sw.CacheMisses)))
		res.set("netem.frames_per_run", single("count", ratio(sw.BatchFrames, sw.BatchRuns)))
		res.set("netem.flooded", single("count", float64(sw.Flooded)))
		res.set("netem.drops", single("count", float64(dropsSeen)))
	}
	return res, nil
}

// ratio is a/b as a float, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pacedProbe runs the open loop at pacedRate for d and reports unloaded
// transit latency and how late the generator ran.
func (b *fwdBench) pacedProbe(res *workloadResult, d time.Duration) error {
	if err := b.gen.win.drain(); err != nil {
		return err
	}
	b.sink.takeTransit()
	late, err := b.gen.runPaced(pacedRate, d)
	if err != nil {
		return err
	}
	if err := b.gen.win.drain(); err != nil {
		return err
	}
	tr := b.sink.takeTransit()
	res.set("core.transit_p50_us", Metric{Value: percentile(tr, 50) / 1e3, Unit: "us", N: len(tr)})
	res.set("core.transit_p99_us", Metric{Value: percentile(tr, 99) / 1e3, Unit: "us", N: len(tr)})
	res.set("core.gen_late_p99_us", Metric{Value: percentile(sortedCopy(late), 99) / 1e3, Unit: "us", N: len(late)})
	return nil
}
