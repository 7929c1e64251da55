package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/metrics"
	"gnf/internal/wire"
)

// The storm workload: the manager alone, two scripted agents owned by the
// benchmark, and every client handing off inside one window. No dataplane,
// no containers — the manager's pipeline under contention.

const (
	stormName     = "storm_2k"
	stormRPCDelay = 200 * time.Microsecond // agent-side work each chain RPC stands for
)

// scriptedAgent is a wire-level station: every chain RPC acks after
// stormRPCDelay. It counts what it serves and notes when each chain was
// enabled, which is when that client's handoff is over as seen from the
// station.
type scriptedAgent struct {
	station string
	peer    *wire.Peer
}

// stormState is shared by both agents of one storm bench.
type stormState struct {
	rpcs        atomic.Uint64
	inflight    atomic.Int64
	inflightMax atomic.Int64
	chainIndex  map[string]int // chain name -> client index; read-only once storms start
	enabledAt   []atomic.Int64 // ns since t0, per client
	t0          time.Time
	rec         *recorder
	storm       atomic.Pointer[openSpan]
}

func (s *stormState) serve(method string, body json.RawMessage) {
	sp := s.rec.start(s.storm.Load(), "agent:"+method)
	s.rpcs.Add(1)
	n := s.inflight.Add(1)
	for {
		max := s.inflightMax.Load()
		if n <= max || s.inflightMax.CompareAndSwap(max, n) {
			break
		}
	}
	time.Sleep(stormRPCDelay)
	if method == agent.MethodEnable {
		var ref agent.ChainRef
		if json.Unmarshal(body, &ref) == nil {
			if i, ok := s.chainIndex[ref.Chain]; ok {
				s.enabledAt[i].Store(int64(time.Since(s.t0)))
			}
		}
	}
	s.inflight.Add(-1)
	sp.end()
}

func newScriptedAgent(mgr *manager.Manager, station string, st *stormState) (*scriptedAgent, error) {
	peer, err := wire.Dial(mgr.Addr())
	if err != nil {
		return nil, err
	}
	for _, m := range []string{agent.MethodDeploy, agent.MethodRemove, agent.MethodEnable,
		agent.MethodDisable, agent.MethodRestore, agent.MethodPrefetch,
		agent.MethodSteer, agent.MethodSteerBatch, agent.MethodUnsteer} {
		m := m
		peer.Handle(m, func(body json.RawMessage) (any, error) {
			st.serve(m, body)
			return nil, nil
		})
	}
	peer.Handle(agent.MethodCheckpoint, func(body json.RawMessage) (any, error) {
		st.serve(agent.MethodCheckpoint, body)
		return agent.CheckpointResult{State: []byte("blob")}, nil
	})
	go peer.Run()
	if err := peer.Call(agent.MethodRegister, agent.RegisterSpec{Station: station}, nil); err != nil {
		peer.Close()
		return nil, err
	}
	return &scriptedAgent{station: station, peer: peer}, nil
}

// announce tells the manager the client is now at this agent's station.
func (a *scriptedAgent) announce(client string) error {
	return a.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: a.station, Client: client, Connected: true}, nil)
}

// stormBench is the manager with every client registered, attached and
// warmed by one discarded ping-pong.
type stormBench struct {
	mgr     *manager.Manager
	agents  [2]*scriptedAgent
	st      *stormState
	clients []string
	order   []int // seeded handoff order
	at      int   // agents index all clients are on
	rec     *recorder

	attachMs []float64 // the set-up's AttachChain calls
}

func setupStorm(cfg runConfig, rec *recorder) (*stormBench, error) {
	n := cfg.stormClients
	b := &stormBench{
		rec:   rec,
		order: genStormOrder(rand.New(rand.NewSource(cfg.seed)), n),
		st: &stormState{chainIndex: make(map[string]int, n), enabledAt: make([]atomic.Int64, n),
			t0: time.Now(), rec: rec},
	}
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(manager.StrategyStateful))
	if err != nil {
		return nil, err
	}
	b.mgr = mgr
	fail := func(err error) (*stormBench, error) {
		b.close()
		return nil, err
	}
	for i, station := range []string{"st-a", "st-b"} {
		if b.agents[i], err = newScriptedAgent(mgr, station, b.st); err != nil {
			return fail(err)
		}
	}
	b.clients = make([]string, n)
	for i := range b.clients {
		b.clients[i] = fmt.Sprintf("c%04d", i)
		b.st.chainIndex["chain-"+b.clients[i]] = i
		if err := b.agents[0].announce(b.clients[i]); err != nil {
			return fail(err)
		}
	}
	mgr.WaitIdle()
	for _, c := range b.clients {
		t0 := time.Now()
		if err := mgr.AttachChain(c, manager.ChainSpec{Name: "chain-" + c, Functions: counterChain()}); err != nil {
			return fail(err)
		}
		b.attachMs = append(b.attachMs, time.Since(t0).Seconds()*1e3)
	}
	for i := 0; i < 2; i++ { // discarded warm-up ping-pong
		if _, err := b.storm(); err != nil {
			return fail(fmt.Errorf("warm-up storm: %w", err))
		}
	}
	return b, nil
}

func (b *stormBench) close() {
	for _, a := range b.agents {
		if a != nil {
			a.peer.Close()
		}
	}
	b.mgr.Close()
}

// stormTiming is one storm as seen from outside the manager.
type stormTiming struct {
	issue, settle time.Duration // events sent; first event sent -> WaitIdle returned
	cpu           time.Duration
	rpcs          uint64
	offTarget     int       // chains not on the target station afterwards
	waitMs        []float64 // per client: its event sent -> its chain enabled on the target
}

// storm hands every client off to the other station, in the seeded
// order, and waits for the manager to settle.
func (b *stormBench) storm() (stormTiming, error) {
	to := 1 - b.at
	target := b.agents[to]
	sentAt := make([]int64, len(b.clients))
	root := b.rec.start(nil, "storm")
	b.st.storm.Store(root)
	defer func() {
		b.st.storm.Store(nil)
		root.end()
	}()
	rpcs0, c0, t0 := b.st.rpcs.Load(), cpuTime(), time.Now()
	sp := b.rec.start(root, "wire.Peer.Call clientEvent x"+fmt.Sprint(len(b.clients)))
	for _, i := range b.order {
		sentAt[i] = int64(time.Since(b.st.t0))
		if err := target.announce(b.clients[i]); err != nil {
			sp.end()
			return stormTiming{}, err
		}
	}
	sp.end()
	st := stormTiming{issue: time.Since(t0)}
	sp = b.rec.start(root, "manager.WaitIdle")
	b.mgr.WaitIdle()
	sp.end()
	st.settle, st.cpu, st.rpcs = time.Since(t0), cpuTime()-c0, b.st.rpcs.Load()-rpcs0
	b.at = to

	// Placements, not Migrations: the migration history is trimmed to its
	// newest 4096 entries and under-counts from the third storm on.
	on := 0
	for _, p := range b.mgr.Placements() {
		if p.Station == target.station {
			on++
		}
	}
	st.offTarget = len(b.clients) - on
	st.waitMs = make([]float64, 0, len(b.clients))
	for i := range b.clients {
		if done := b.st.enabledAt[i].Load(); done >= sentAt[i] {
			st.waitMs = append(st.waitMs, float64(done-sentAt[i])/1e6)
		} else {
			st.offTarget++ // never enabled on the target during this storm
		}
	}
	if st.offTarget != 0 {
		return st, fmt.Errorf("storm to %s left %d of %d chains off target", target.station, st.offTarget, len(b.clients))
	}
	return st, nil
}

// runStorm runs the storm workload: cfg.setups rounds of set-up, timed
// storms and tear-down. With a recorder (the traced pass) it also reports
// set-up and pipeline internals.
func runStorm(cfg runConfig, rec *recorder) (*workloadResult, error) {
	res := newResult(stormName)
	n := uint64(cfg.stormClients)
	var setups, perSec, cpuUs, settleMs, clientMs, allClientMs, issueMs, rpcsPer, attachMs []float64
	var inflightMax int64
	var latency metrics.HistogramSnapshot
	storms := uint64(0)
	for round := 0; round < cfg.setups; round++ {
		t0 := time.Now()
		b, err := setupStorm(cfg, rec)
		if err != nil {
			return res.fail(n*storms+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		start := time.Now()
		for i := 0; !cfg.opsDone(i, time.Since(start)); i++ {
			st, err := b.storm()
			storms++
			if err != nil {
				b.close()
				return res.fail(n*storms, fmt.Errorf("storm %d: %w", storms, err))
			}
			perSec = append(perSec, float64(n)/st.settle.Seconds())
			cpuUs = append(cpuUs, float64(st.cpu.Microseconds())/float64(n))
			settleMs = append(settleMs, ms(st.settle))
			clientMs = append(clientMs, median(st.waitMs))
			allClientMs = append(allClientMs, st.waitMs...)
			issueMs = append(issueMs, ms(st.issue))
			rpcsPer = append(rpcsPer, float64(st.rpcs)/float64(n))
		}
		attachMs = append(attachMs, b.attachMs...)
		inflightMax = max(inflightMax, b.st.inflightMax.Load())
		latency = b.mgr.MetricsSnapshot().Histograms["handoff.latency_ms"]
		b.close()
	}
	res.Attempted = n * storms
	res.set("setup_s", summarize("s", setups))
	res.set("ops_per_sec", summarize("1/s", perSec))
	res.set("cpu_us_per_op", summarize("us", cpuUs))
	res.set("wait_p50_ms", summarize("ms", settleMs))
	res.alias("handoffs_per_sec", "ops_per_sec")
	res.alias("cpu_us_per_handoff", "cpu_us_per_op")
	res.alias("storm_settle_p50_ms", "wait_p50_ms")
	res.note("closed loop of one storm at a time, %d storms of %d clients, scripted agents ack every chain RPC after %s, loopback TCP, no dataplane",
		storms, n, stormRPCDelay)
	res.note("%s", tailNote("client handoff (its event sent -> its chain enabled on the target)", "ms", allClientMs))
	if rec != nil {
		at := sortedCopy(attachMs)
		res.set("manager.attach_p50_ms", Metric{Value: percentile(at, 50), Unit: "ms", N: len(at)})
		res.set("manager.attach_p99_ms", Metric{Value: percentile(at, 99), Unit: "ms", N: len(at)})
		res.set("manager.event_issue_ms", summarize("ms", issueMs))
		res.set("manager.client_handoff_p50_ms", summarize("ms", clientMs))
		res.set("manager.cpu_ms_per_handoff", single("ms", median(cpuUs)/1e3))
		rp := summarize("count", rpcsPer)
		rp.Exact = true
		res.set("agent.rpcs_per_handoff", rp)
		res.set("agent.rpc_inflight_max", single("count", float64(inflightMax)))
		res.set("manager.storm_handoff_latency_p50_ms", Metric{Value: latency.P50, Unit: "ms", N: int(latency.Count)})
		res.set("manager.storm_handoff_latency_p99_ms", Metric{Value: latency.P99, Unit: "ms", N: int(latency.Count)})
	}
	return res, nil
}
