package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/trace"
	"gnf/internal/wire"
)

// Isolated layer loops of the traced pass: each prices one public call of
// one layer on its own, with frames refreshed from a master every
// iteration, for loopDur; the refresh itself is priced once and taken off
// every per-frame figure, so that the figures add up along a path. Their sums against the end-to-end figures are
// the two budgets; what the sums leave unexplained is printed as the
// residual.

// layerInputs is what the loops are sized by: the workload's frame and
// chain, and the seed's flows and NAT state.
type layerInputs struct {
	frame    []byte
	chain    []agent.NFSpec
	flows    []flowTuple // scatter set
	natPorts []uint16
	loopDur  time.Duration
}

func newLayerInputs(frameLen int, chain []agent.NFSpec, cfg runConfig) layerInputs {
	rng := rand.New(rand.NewSource(cfg.seed))
	return layerInputs{
		frame:    genFrameTemplate(rng, frameLen),
		chain:    chain,
		flows:    genFlows(rng, 100000),
		natPorts: genNATSeedPorts(rng, natSeedSize),
		loopDur:  cfg.loopDur,
	}
}

// loopCost is one loop's price per operation.
type loopCost struct{ ns, allocs float64 }

// timeLoop calls fn until d has elapsed and returns the mean cost of one
// call, after a short warm-up that fills caches and pools.
func timeLoop(d time.Duration, fn func()) loopCost {
	const stride = 64
	for i := 0; i < stride; i++ {
		fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for i := 0; i < stride; i++ {
			fn()
		}
		n += stride
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return loopCost{
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
}

// per divides a loop's cost by the number of frames each call handled.
func (c loopCost) per(frames int) loopCost {
	return loopCost{ns: c.ns / float64(frames), allocs: c.allocs / float64(frames)}
}

// less takes a baseline off a loop's time: what the loop spent refreshing
// its frame from the master, which a stage on the live path does not do.
func (c loopCost) less(baselineNs float64) loopCost {
	c.ns = max(c.ns-baselineNs, 0)
	return c
}

// refreshCosts are the two ways a loop renews its frame each iteration.
type refreshCosts struct {
	pooled float64 // borrow a pooled buffer, copy the master in, hand it back
	copied float64 // copy the master over a private buffer
}

func packetLayer(res *workloadResult, in layerInputs, rec *recorder) refreshCosts {
	sp := rec.start(nil, "layer:packet")
	defer sp.end()
	var p packet.Parser
	parse := timeLoop(in.loopDur, func() {
		if err := p.Parse(in.frame); err != nil {
			panic(err) // the benchmark built this frame itself
		}
	})
	var sink uint64
	key := timeLoop(in.loopDur, func() {
		k := p.FlowKey()
		sink += k.Hash()
	})
	_ = sink
	pool := timeLoop(in.loopDur, func() { packet.ReturnFrame(packet.BorrowFrame()) })
	refresh := timeLoop(in.loopDur, func() { packet.ReturnFrame(append(packet.BorrowFrame(), in.frame...)) })
	work := packet.Clone(in.frame)
	cp := timeLoop(in.loopDur, func() { copy(work, in.frame) })
	res.set("packet.parse_ns", single("ns", parse.ns))
	res.set("packet.flowkey_ns", single("ns", key.ns))
	res.set("packet.frame_pool_ns", single("ns", pool.ns))
	res.set("packet.frame_refresh_ns", single("ns", refresh.ns))
	res.set("packet.allocs_per_frame", single("count", parse.allocs+key.allocs+pool.allocs+refresh.allocs))
	return refreshCosts{pooled: refresh.ns, copied: cp.ns}
}

// injectSwitch is a station switch serving 128 clients' worth of steering
// entries, none matching the benchmark's frames (a verdict miss pays the
// full scan), plus one in-port rule redirecting them to a service port
// whose far end is closed, so delivery is an O(1) recycle and the loop
// prices the verdict pipeline alone.
func injectSwitch() *netem.Switch {
	sw := netem.NewSwitch("bench")
	ingress, _ := netem.NewVethPair("bench-in", "bench-in-peer")
	egress, _ := netem.NewVethPair("bench-out", "bench-out-peer")
	sw.Attach(1, ingress)
	sw.AttachService(100, egress)
	egress.Close()
	proto := uint8(packet.ProtoUDP)
	for i := 0; i < 128; i++ {
		ip := packet.IP{10, 0, 1, byte(i)}
		port := uint16(9000 + i)
		sw.AddRule(netem.Rule{Priority: 10,
			Match:  netem.Match{Proto: &proto, SrcIP: &ip, DstPort: &port},
			Action: netem.ActionRedirect, OutPort: 2})
	}
	inPort := netem.PortID(1)
	sw.AddRule(netem.Rule{Priority: 20, Match: netem.Match{InPort: &inPort},
		Action: netem.ActionRedirect, OutPort: 100})
	return sw
}

func netemLayer(res *workloadResult, in layerInputs, base refreshCosts, rec *recorder) {
	sp := rec.start(nil, "layer:netem")
	defer sp.end()
	fresh := func(flow int) []byte {
		f := append(packet.BorrowFrame(), in.frame...)
		binary.BigEndian.PutUint16(f[34:], in.flows[flow].src)
		binary.BigEndian.PutUint16(f[36:], in.flows[flow].dst)
		return f
	}
	batch := make([][]byte, grantEvery)

	sw := injectSwitch()
	one := timeLoop(in.loopDur, func() { sw.Inject(1, fresh(0)) }).less(base.pooled)
	train := timeLoop(in.loopDur, func() {
		for j := range batch {
			batch[j] = fresh(0)
		}
		sw.InjectBatch(1, batch)
	}).per(grantEvery).less(base.pooled)
	next := 0
	advance := func() int {
		next = (next + 1) % len(in.flows)
		return next
	}
	scatter := timeLoop(in.loopDur, func() { sw.Inject(1, fresh(advance())) }).less(base.pooled)
	scatterBatch := timeLoop(in.loopDur, func() {
		for j := range batch {
			batch[j] = fresh(advance())
		}
		sw.InjectBatch(1, batch)
	}).per(grantEvery).less(base.pooled)
	res.set("netem.inject_ns", single("ns", one.ns))
	res.set("netem.inject_batch_ns", single("ns", train.ns))
	res.set("netem.inject_scatter_ns", single("ns", scatter.ns))
	res.set("netem.inject_batch_scatter_ns", single("ns", scatterBatch.ns))
	res.set("netem.allocs_per_frame", single("count", (one.allocs+train.allocs+scatter.allocs+scatterBatch.allocs)/4))

	// The sampler's cost: the same per-frame loop with 1-in-100 sampling on.
	sampled := injectSwitch()
	sampled.EnableSampling(100)
	on := timeLoop(in.loopDur, func() { sampled.Inject(1, fresh(0)) })
	off := timeLoop(in.loopDur, func() { sw.Inject(1, fresh(0)) })
	res.set("netem.sampler_overhead_pct", single("%", (on.ns-off.ns)/off.ns*100))

	// One veth hop, batched: SendBatch to a batch receiver, a full window
	// in flight, the sender blocking on credits like the real generator.
	a, b := netem.NewVethPair("hop-a", "hop-b")
	win := newWindow(windowFrames, stallTimeout)
	got := 0
	b.SetBatchReceiver(func(frames [][]byte) {
		packet.ReturnFrames(frames)
		for got += len(frames); got >= grantEvery; got -= grantEvery {
			win.grant(grantEvery)
		}
	})
	hop := timeLoop(in.loopDur, func() {
		if win.acquire(grantEvery) != nil {
			panic("veth hop loop stalled")
		}
		for j := range batch {
			batch[j] = fresh(0)
		}
		a.SendBatch(batch)
	}).per(grantEvery).less(base.pooled)
	a.Close()
	res.set("netem.veth_hop_ns", single("ns", hop.ns))

	// One veth hop, alone: Send to a per-frame receiver with nothing else
	// in flight, so every frame pays the receiver's wake-up.
	c, d := netem.NewVethPair("wake-c", "wake-d")
	arrived := make(chan struct{}, 1)
	d.SetReceiver(func(f []byte) {
		packet.ReturnFrame(f)
		arrived <- struct{}{}
	})
	wake := timeLoop(in.loopDur, func() {
		c.Send(fresh(0))
		<-arrived
	}).less(base.pooled)
	c.Close()
	res.set("netem.veth_wake_us", single("us", wake.ns/1e3))
}

// buildChain instantiates specs through the NF registry, as an agent does.
func buildChain(specs []agent.NFSpec) (*nf.Chain, error) {
	fns := make([]nf.Function, 0, len(specs))
	for _, s := range specs {
		fn, err := nf.Default.New(s.Kind, s.Name, s.Params)
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	return nf.NewChain("bench", fns...), nil
}

func nfLayer(res *workloadResult, in layerInputs, base refreshCosts, rec *recorder) error {
	sp := rec.start(nil, "layer:nf")
	defer sp.end()
	chain, err := buildChain(in.chain)
	if err != nil {
		return err
	}
	// Rewriting NFs mutate the frame in place; re-processing the rewritten
	// frame would mint a new mapping per iteration, so every iteration
	// starts from the master.
	work := packet.Clone(in.frame)
	perFrame := timeLoop(in.loopDur, func() {
		copy(work, in.frame)
		chain.Process(nf.Outbound, work)
	}).less(base.copied)
	batch := make([][]byte, grantEvery)
	out := nf.BorrowBatchOutput()
	batched := timeLoop(in.loopDur, func() {
		for j := range batch {
			batch[j] = append(packet.BorrowFrame(), in.frame...)
		}
		chain.ProcessBatch(nf.Outbound, batch, out)
		packet.ReturnFrames(out.Forward)
		out.Reset()
	}).per(grantEvery).less(base.pooled)
	nf.ReturnBatchOutput(out)
	res.set("nf.chain_ns", single("ns", perFrame.ns))
	res.set("nf.chain_batch_ns", single("ns", batched.ns))
	res.set("nf.allocs_per_frame", single("count", batched.allocs))

	for _, m := range []struct {
		metric string
		spec   agent.NFSpec
	}{
		{"nf.firewall128_ns", chain5()[0]},
		{"nf.httpfilter_ns", chain5()[1]},
		{"nf.ratelimit_ns", chain5()[2]},
		{"nf.nat_ns", chain5()[3]},
		{"nf.counter_ns", chain5()[4]},
	} {
		fn, err := nf.Default.New(m.spec.Kind, m.spec.Name, m.spec.Params)
		if err != nil {
			return err
		}
		c := timeLoop(in.loopDur, func() {
			copy(work, in.frame)
			fn.Process(nf.Outbound, work)
		}).less(base.copied)
		res.set(m.metric, single("ns", c.ns))
	}

	// The state path, on the roam chain carrying the seed's NAT mappings.
	src, err := buildChain(roamChain())
	if err != nil {
		return err
	}
	if err := seedNATChain(src, in.natPorts); err != nil {
		return err
	}
	state, err := src.ExportState()
	if err != nil {
		return err
	}
	kib := float64(len(state)) / 1024
	export := timeLoop(in.loopDur, func() { src.ExportState() })
	dst, err := buildChain(roamChain())
	if err != nil {
		return err
	}
	if err := dst.ImportState(state); err != nil {
		return err
	}
	imp := timeLoop(in.loopDur, func() { dst.ImportState(state) })
	res.set("nf.state_bytes", single("B", float64(len(state))))
	res.set("nf.export_us_per_kib", single("us", export.ns/1e3/kib))
	res.set("nf.import_us_per_kib", single("us", imp.ns/1e3/kib))
	return nil
}

// blobState is a container application whose state is a fixed blob.
type blobState struct{ blob []byte }

func (b *blobState) ExportState() ([]byte, error) { return b.blob, nil }
func (b *blobState) ImportState(d []byte) error   { b.blob = d; return nil }

// benchRuntime is a stand-alone container runtime whose images are
// already local: the loops price container operations, not pulls.
func benchRuntime(host string) (*container.Runtime, error) {
	repo := container.NewRepository(clock.System(), pinnedRepoRateBps, pinnedRepoRTT)
	for _, img := range pinnedImages() {
		repo.Push(img)
	}
	rt := container.NewRuntime(host, clock.System(), repo)
	var wg sync.WaitGroup
	errs := make([]error, len(pinnedImages()))
	for i, img := range pinnedImages() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = rt.EnsureImage(img.Name)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rt, nil
}

const layerRepeats = 3 // container and agent operations are modelled sleeps: a few repeats suffice

func containerLayer(res *workloadResult, rec *recorder) error {
	sp := rec.start(nil, "layer:container")
	defer sp.end()
	rt, err := benchRuntime("bench")
	if err != nil {
		return err
	}
	const stateBytes = 256 << 10
	mib := float64(stateBytes) / (1 << 20)
	var boot, teardown, ckpt, restore []float64
	for i := 0; i < layerRepeats; i++ {
		t0 := time.Now()
		c, err := rt.Create(container.Config{Name: "c", Image: agent.ImageForKind("nat")})
		if err != nil {
			return err
		}
		if err := c.Start(); err != nil {
			return err
		}
		boot = append(boot, ms(time.Since(t0)))
		c.SetStateHandler(&blobState{blob: make([]byte, stateBytes)})
		t0 = time.Now()
		state, err := c.Checkpoint()
		if err != nil {
			return err
		}
		ckpt = append(ckpt, ms(time.Since(t0))/mib)
		t0 = time.Now()
		if err := c.Restore(state); err != nil {
			return err
		}
		restore = append(restore, ms(time.Since(t0))/mib)
		t0 = time.Now()
		if err := c.Stop(); err != nil {
			return err
		}
		if err := c.Remove(); err != nil {
			return err
		}
		teardown = append(teardown, ms(time.Since(t0)))
	}
	res.set("container.create_start_ms", summarize("ms", boot))
	res.set("container.stop_remove_ms", summarize("ms", teardown))
	res.set("container.checkpoint_ms_per_mib", summarize("ms", ckpt))
	res.set("container.restore_ms_per_mib", summarize("ms", restore))
	return nil
}

// benchAgent is a stand-alone agent on its own runtime and switch, with
// the client wired to port 1.
func benchAgent(station string) (*agent.Agent, error) {
	rt, err := benchRuntime(station)
	if err != nil {
		return nil, err
	}
	sw := netem.NewSwitch(station)
	up, _ := netem.NewVethPair(station+"-up", station+"-core")
	sw.Attach(0, up)
	access, _ := netem.NewVethPair(station+"-ap", station+"-wl")
	sw.Attach(1, access)
	ag := agent.New(topology.StationID(station), clock.System(), rt, sw, 0)
	ag.AttachClient("phone", phoneMAC, phoneIP, 1)
	return ag, nil
}

// agentLayer times every public agent call a handoff issues, on two
// stand-alone agents passing the seeded roam chain back and forth: one
// stop-and-copy handoff then one pre-copy handoff per repeat. It returns
// the plain sum of the calls each strategy issues — no assumption about
// which of them the manager overlaps.
func agentLayer(res *workloadResult, in layerInputs, rec *recorder) (sumStateful, sumLive float64, err error) {
	sp := rec.start(nil, "layer:agent")
	defer sp.end()
	var ags [2]*agent.Agent
	for i, st := range []string{"iso-a", "iso-b"} {
		if ags[i], err = benchAgent(st); err != nil {
			return 0, 0, err
		}
	}
	spec := agent.DeploySpec{Chain: "chain", Client: "phone", Functions: roamChain()}
	first := spec
	first.Enabled = true
	if _, err := ags[0].Deploy(first); err != nil {
		return 0, 0, err
	}
	chain, err := ags[0].ChainFunction("chain")
	if err != nil {
		return 0, 0, err
	}
	if err := seedNATChain(chain, in.natPorts); err != nil {
		return 0, 0, err
	}

	samples := make(map[string][]float64)
	timed := func(name string, fn func() error) error {
		csp := rec.start(sp, "agent."+name)
		t0 := time.Now()
		err := fn()
		samples[name] = append(samples[name], ms(time.Since(t0)))
		csp.end()
		if err != nil {
			return fmt.Errorf("agent %s: %w", name, err)
		}
		return nil
	}
	type step struct {
		name string
		fn   func() error
	}
	at := 0
	for i := 0; i < layerRepeats; i++ {
		// Stop-and-copy, in the order the manager issues it.
		src, dst := ags[at], ags[1-at]
		var state []byte
		steps := []step{
			{"deploy", func() error { _, err := dst.Deploy(spec); return err }},
			{"disable", func() error { return src.Disable("chain") }},
			{"checkpoint", func() (err error) { state, err = src.Checkpoint("chain"); return }},
			{"restore", func() error { return dst.Restore("chain", state) }},
			{"enable", func() error { return dst.Enable("chain") }},
			{"remove", func() error { return src.Remove("chain") }},
		}
		for _, s := range steps {
			if err := timed(s.name, s.fn); err != nil {
				return 0, 0, err
			}
		}
		at = 1 - at

		// Pre-copy: one full round while serving, then the frozen residual.
		src, dst = ags[at], ags[1-at]
		var round *agent.PreCopyResult
		precopy := func(restart bool) func() error {
			return func() (err error) { round, err = src.PreCopy("chain", restart); return }
		}
		syncDelta := func() error { return dst.SyncDelta("chain", round.State) }
		steps = []step{
			{"deploy", func() error { _, err := dst.Deploy(spec); return err }},
			{"precopy", precopy(true)},
			{"syncdelta", syncDelta},
			{"freeze", func() error { return src.Freeze("chain") }},
			{"precopy_residual", precopy(false)},
			{"syncdelta_residual", syncDelta},
			{"activate", func() error { _, err := dst.Activate("chain"); return err }},
			{"remove", func() error { return src.Remove("chain") }},
		}
		for _, s := range steps {
			if err := timed(s.name, s.fn); err != nil {
				return 0, 0, err
			}
		}
		at = 1 - at
	}
	med := func(name string) float64 { return median(samples[name]) }
	for _, name := range []string{"deploy", "disable", "checkpoint", "restore", "enable", "remove", "activate"} {
		res.set("agent."+name+"_ms", summarize("ms", samples[name]))
	}
	// Both PreCopy (and SyncDelta) calls of one live handoff, summed.
	res.set("agent.precopy_ms", single("ms", med("precopy")+med("precopy_residual")))
	res.set("agent.syncdelta_ms", single("ms", med("syncdelta")+med("syncdelta_residual")))
	sumStateful = med("deploy") + med("disable") + med("checkpoint") + med("restore") + med("enable") + med("remove")
	sumLive = med("deploy") + med("precopy") + med("syncdelta") + med("freeze") +
		med("precopy_residual") + med("syncdelta_residual") + med("activate") + med("remove")
	return sumStateful, sumLive, nil
}

func wireLayer(res *workloadResult, in layerInputs, rec *recorder) error {
	sp := rec.start(nil, "layer:wire")
	defer sp.end()
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) {
		p.Handle("echo", func(body json.RawMessage) (any, error) { return body, nil })
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	p, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	go p.Run()
	defer p.Close()

	req := map[string]string{"chain": "chain", "station": "st-a"}
	var callErr error
	rtts := newSampleRing(1 << 16)
	serial := timeLoop(in.loopDur, func() {
		var out map[string]string
		t0 := time.Now()
		if err := p.Call("echo", req, &out); err != nil {
			callErr = err
		}
		rtts.add(float64(time.Since(t0)))
	})
	sorted := rtts.sorted()
	res.set("wire.call_rtt_us", Metric{Value: percentile(sorted, 50) / 1e3, Unit: "us", N: len(sorted)})
	res.set("wire.call_rtt_p99_us", Metric{Value: percentile(sorted, 99) / 1e3, Unit: "us", N: len(sorted)})
	res.set("wire.allocs_per_call", single("count", serial.allocs))

	const fan = 16
	calls := make([]wire.BatchCall, fan)
	outs := make([]map[string]string, fan)
	batched := timeLoop(in.loopDur, func() {
		for j := range calls {
			calls[j] = wire.BatchCall{Method: "echo", In: req, Out: &outs[j]}
		}
		for _, err := range p.CallBatch(calls) {
			if err != nil {
				callErr = err
			}
		}
	}).per(fan)
	res.set("wire.call_batch_us", single("us", batched.ns/1e3))

	errs := make([]error, fan)
	contended := timeLoop(in.loopDur, func() {
		var wg sync.WaitGroup
		for j := 0; j < fan; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out map[string]string
				errs[j] = p.Call("echo", req, &out)
			}()
		}
		wg.Wait()
	}).per(fan)
	for _, err := range errs {
		if err != nil {
			callErr = err
		}
	}
	res.set("wire.call_contended_us", single("us", contended.ns/1e3))
	return callErr
}

func traceLayer(res *workloadResult, in layerInputs, rec *recorder) {
	sp := rec.start(nil, "layer:trace")
	defer sp.end()
	tr := trace.New(clock.System(), trace.WithStore(0))
	c := timeLoop(in.loopDur, func() { tr.StartSpan(trace.Context{}, "bench").End(nil) })
	res.set("trace.span_ns", single("ns", c.ns))
}
