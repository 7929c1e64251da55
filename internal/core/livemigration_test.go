package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/manager"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/trace"
)

// natChain is a stateful chain whose migration must move the translation
// table — the live-migration pipeline's exemplar workload.
func natChain(name string) manager.ChainSpec {
	return manager.ChainSpec{
		Name: name,
		Functions: []agent.NFSpec{
			{Kind: "nat", Name: "nat0", Params: nf.Params{"nat_ip": "192.168.77.1", "ports": "30000-62000"}},
			{Kind: "counter", Name: "acct0"},
		},
	}
}

// liveSystem brings up a virtual-clock deployment with the given station
// count (stations st-0..st-n at x = 0, 100, 200, ... with cells cell-0..)
// and one client attached at cell-0.
func liveSystem(t *testing.T, stations int, strategy manager.Strategy) *System {
	t.Helper()
	cfg := Config{Strategy: strategy}
	for i := 0; i < stations; i++ {
		cfg.Stations = append(cfg.Stations, StationConfig{
			ID:       topology.StationID(fmt.Sprintf("st-%d", i)),
			Position: topology.Point{X: float64(i) * 100},
			Cells: []CellConfig{{
				ID:     topology.CellID(fmt.Sprintf("cell-%d", i)),
				Center: topology.Point{X: float64(i) * 100},
				Radius: 60,
			}},
		})
	}
	sys, _, err := NewVirtualSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("phone", "cell-0"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-0", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return sys
}

// seedFlows pushes n distinct UDP flows through the client's chain on the
// station, growing NAT and counter state.
func seedFlows(t *testing.T, sys *System, station topology.StationID, chain string, n int) {
	t.Helper()
	fn, err := sys.Agent(station).ChainFunction(chain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		frame := packet.BuildUDP(phoneMAC, serverMAC, phoneIP, serverIP,
			uint16(i%28000+2000), 53, nil)
		fn.Process(nf.Outbound, frame)
	}
}

func auditClean(t *testing.T, sys *System) {
	t.Helper()
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("audit violations: %v", vs)
	}
}

// noStrayRules asserts that no station detours the client and that each
// station's switch holds exactly the rules listed for it (absent = none):
// whatever steering a move put in on the way is gone again.
func noStrayRules(t *testing.T, sys *System, want map[topology.StationID]int) {
	t.Helper()
	sys.mu.Lock()
	stations := make([]topology.StationID, 0, len(sys.stations))
	for id := range sys.stations {
		stations = append(stations, id)
	}
	sys.mu.Unlock()
	for _, id := range stations {
		ag := sys.Agent(id)
		if d := ag.Detours(); len(d) != 0 {
			t.Errorf("%s still detours %v", id, d)
		}
		if rules := ag.Switch().Rules(); len(rules) != want[id] {
			t.Errorf("%s holds %d switch rules, want %d: %+v", id, len(rules), want[id], rules)
		}
	}
}

// spanNames counts the stored spans of every trace by name.
func spanNames(sys *System) map[string]int {
	names := map[string]int{}
	tr := sys.Manager.Tracer()
	for _, sum := range tr.Traces() {
		for _, sp := range tr.Trace(sum.TraceID) {
			names[sp.Name]++
		}
	}
	return names
}

func TestLiveMigrationPreservesStateWithSmallResidual(t *testing.T) {
	sys := liveSystem(t, 2, manager.StrategyLive)
	if err := sys.AttachChain("phone", natChain("edge")); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitChainOn("st-0", "edge", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	seedFlows(t, sys, "st-0", "edge", 2000)

	if err := sys.Topo.Attach("phone", "cell-1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-1", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()

	migs := sys.Manager.Migrations()
	if len(migs) != 1 {
		t.Fatalf("migrations = %+v", migs)
	}
	rep := migs[0]
	if rep.Err != "" || rep.Strategy != manager.StrategyLive {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Rounds < 1 || rep.PrecopyBytes == 0 {
		t.Fatalf("no pre-copy rounds ran: %+v", rep)
	}
	// The residual (shipped frozen) must be a sliver of the pre-copied
	// bulk — that is what makes downtime independent of state size.
	if rep.ResidualBytes*10 > rep.PrecopyBytes {
		t.Fatalf("residual %dB vs precopy %dB — freeze window not slim", rep.ResidualBytes, rep.PrecopyBytes)
	}

	// State continuity: the target's NAT table holds every seeded flow.
	fn, err := sys.Agent("st-1").ChainFunction("edge")
	if err != nil {
		t.Fatal(err)
	}
	stats := fn.NFStats()
	if got := stats["nat0.mappings"]; got != 2000 {
		t.Fatalf("migrated NAT mappings = %d, want 2000", got)
	}
	if got := stats["acct0.tracked_flows"]; got != 2000 {
		t.Fatalf("migrated counter flows = %d, want 2000", got)
	}
	auditClean(t, sys)
}

func TestLiveDowntimeFlatAcrossStateSizes(t *testing.T) {
	// Stop-and-copy downtime grows with state (checkpoint+restore of the
	// full blob sit inside the freeze); live downtime must not.
	downtime := func(strategy manager.Strategy, flows int) time.Duration {
		sys := liveSystem(t, 2, strategy)
		if err := sys.AttachChain("phone", natChain("edge")); err != nil {
			t.Fatal(err)
		}
		if err := sys.WaitChainOn("st-0", "edge", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		seedFlows(t, sys, "st-0", "edge", flows)
		rep, err := sys.Manager.MigrateChain("phone", "edge", "st-1")
		if err != nil {
			t.Fatal(err)
		}
		return rep.Downtime
	}
	liveSmall := downtime(manager.StrategyLive, 100)
	liveBig := downtime(manager.StrategyLive, 10000)
	stopBig := downtime(manager.StrategyStateful, 10000)
	if liveBig > 4*liveSmall+time.Millisecond {
		t.Fatalf("live downtime scales with state: %v (100 flows) -> %v (10k flows)", liveSmall, liveBig)
	}
	if stopBig < 4*liveBig {
		t.Fatalf("stop-and-copy (%v) not dominated by live (%v) at 10k flows", stopBig, liveBig)
	}
}

func TestRapidDoubleHandoffMidPrecopy(t *testing.T) { rapidDoubleHandoff(t, manager.StrategyLive) }

// TestRapidDoubleHandoffMidBoot is the stop-and-copy twin: the client is
// back at A while B still boots behind the detour.
func TestRapidDoubleHandoffMidBoot(t *testing.T) { rapidDoubleHandoff(t, manager.StrategyStateful) }

// rapidDoubleHandoff roams A→B→A with the second association landing while
// the first move is between its detour and its freeze, and wants one chain,
// at A, serving, with nothing of either move's steering left anywhere.
func rapidDoubleHandoff(t *testing.T, strategy manager.Strategy) {
	sys := liveSystem(t, 2, strategy)
	if err := sys.AttachChain("phone", natChain("edge")); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitChainOn("st-0", "edge", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Enough state that the first pre-copy round (or the checkpoint) is slow
	// relative to the follow-up handoff: the A->B migration is still in
	// flight when the client bounces back to A.
	seedFlows(t, sys, "st-0", "edge", 5000)

	if err := sys.Topo.Attach("phone", "cell-1"); err != nil {
		t.Fatal(err)
	}
	// Bounce back the moment st-1 starts detouring the client to st-0 (or,
	// should the whole move outrun this loop, a little later: either order
	// must converge).
	for deadline := time.Now().Add(time.Second); !sys.Agent("st-1").Steered("phone") && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if err := sys.Topo.Attach("phone", "cell-0"); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()

	if st, _ := sys.Manager.ClientStation("phone"); st != "st-0" {
		t.Fatalf("client at %q, want st-0", st)
	}
	// The chain must converge back to st-0, enabled, with no leaks on
	// st-1 and no invariant violations.
	deadline := time.After(5 * time.Second)
	for {
		if on, err := sys.Agent("st-0").ChainEnabled("edge"); err == nil && on {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("chain never converged to st-0: st-0=%v st-1=%v",
				sys.Agent("st-0").Chains(), sys.Agent("st-1").Chains())
		case <-time.After(2 * time.Millisecond):
		}
	}
	auditClean(t, sys)
	for _, rep := range sys.Manager.Migrations() {
		if rep.Err != "" {
			t.Fatalf("failed migration in double handoff: %+v", rep)
		}
	}
	// The client left st-1 while st-1 was detouring it back to st-0, and
	// the way home ran a second detour the other way: neither may leave a
	// rule behind (the tunnel between the two is infrastructure and stays; a
	// leg still riding it is the audit's leg-mismatch). The chain at st-0
	// keeps its two local-leg rules.
	noStrayRules(t, sys, map[topology.StationID]int{"st-0": 2})
	if left := sys.Agent("st-1").Chains(); len(left) != 0 {
		t.Errorf("st-1 still holds %v", left)
	}
}

// wireLog is what the server saw of a sequence-numbered stream: per frame,
// whether it arrived and whether it carried the chain's NAT address; and of
// the translated frames, the order they came in and the NAT ports they wore.
type wireLog struct {
	mu        sync.Mutex
	rewritten map[uint32]bool
	order     []uint32
	natPorts  map[uint16]int
}

// streamAcrossHandoff runs the two-station demo system on the wall clock
// (container boots really take their ~120 ms) with a NAT chain, streams one
// frame per millisecond from the phone to the server across a single
// handoff st-a -> st-b, and returns the sequence numbers that left the
// phone, the one current when the roam began, and the server's log.
func streamAcrossHandoff(t *testing.T, strategy manager.Strategy) (sys *System, sent []uint32, roamAt uint32, log *wireLog) {
	t.Helper()
	sys, _ = demoSystem(t, strategy)
	sent, roamAt, log = streamAcrossHandoffOf(t, sys, natChain("edge"))
	return sys, sent, roamAt, log
}

// streamAcrossHandoffOf is streamAcrossHandoff on a system the caller built
// (phone at st-a, a cell-b to roam to), with the chain it names; the chain's
// first function must be natChain's NAT.
func streamAcrossHandoffOf(t *testing.T, sys *System, chain manager.ChainSpec) (sent []uint32, roamAt uint32, log *wireLog) {
	t.Helper()
	return streamAcross(t, sys, chain, func(func() uint32) {
		if err := sys.Topo.Attach("phone", "cell-b"); err != nil {
			t.Fatal(err)
		}
		if err := sys.WaitClientAt("phone", "st-b", 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

// streamAcross is the harness under streamAcrossHandoffOf: the chain
// attached with 500 flows of state in its head, the 1 kHz stream, and act — a
// handoff, or whatever else the chain must serve the phone across — run
// 30 ms into it; act's argument reads the sequence number current, and
// roamAt is the one current when act began.
func streamAcross(t *testing.T, sys *System, chain manager.ChainSpec, act func(seq func() uint32)) (sent []uint32, roamAt uint32, log *wireLog) {
	t.Helper()
	if err := sys.AttachChain("phone", chain); err != nil {
		t.Fatal(err)
	}
	head := headStation(sys, chain.Name)
	if err := sys.WaitChainOn(head, chain.Name, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	seedFlows(t, sys, head, chain.Name, 500)

	natIP := packet.IP{192, 168, 77, 1}
	log = &wireLog{rewritten: map[uint32]bool{}, natPorts: map[uint16]int{}}
	server := sys.AddServer("sink", packet.MAC{2, 0, 0, 0, 0, 0x98}, packet.IP{10, 99, 0, 2})
	server.HandleUDP(7100, func(src, _ packet.Endpoint, payload []byte) []byte {
		if len(payload) >= 4 {
			seq := binary.BigEndian.Uint32(payload)
			log.mu.Lock()
			log.rewritten[seq] = src.Addr == natIP
			if src.Addr == natIP {
				log.order = append(log.order, seq)
				log.natPorts[src.Port]++
			}
			log.mu.Unlock()
		}
		return nil
	})
	phone := sys.ClientHost("phone")
	phone.Learn(packet.IP{10, 99, 0, 2}, packet.MAC{2, 0, 0, 0, 0, 0x98})

	var mu sync.Mutex
	var seq uint32
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		buf := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			mu.Lock()
			binary.BigEndian.PutUint32(buf, seq)
			// A send between cells fails: that frame never left the phone.
			if phone.SendUDP(packet.Endpoint{Addr: packet.IP{10, 99, 0, 2}, Port: 7100}, 6000, buf) == nil {
				sent = append(sent, seq)
			}
			seq++
			mu.Unlock()
		}
	}()
	now := func() uint32 {
		mu.Lock()
		defer mu.Unlock()
		return seq
	}
	time.Sleep(30 * time.Millisecond)
	roamAt = now()
	act(now)
	time.Sleep(30 * time.Millisecond)
	close(stop)
	<-done
	time.Sleep(20 * time.Millisecond) // the last frames reach the server
	return sent, roamAt, log
}

// headStation is where the manager placed the phone's chain (its head, for a
// split chain).
func headStation(sys *System, chain string) topology.StationID {
	for _, pl := range sys.Manager.Placements() {
		if pl.Client == "phone" && pl.Chain == chain {
			return topology.StationID(pl.Station)
		}
	}
	return ""
}

// detouredHandoff streams across one handoff under a state-carrying strategy
// and checks what every such handoff owes the client: while the target boots
// its traffic keeps crossing its chain — at the source, over the detour — so
// what reaches the server un-translated is only what slipped out between the
// association and the detour landing, nothing is lost, and nothing the detour
// put in is left behind. It returns the move's report and the wire gap: the
// stream time that passed the chain by.
func detouredHandoff(t *testing.T, strategy manager.Strategy) (*wireLog, manager.MigrationReport, time.Duration) {
	t.Helper()
	basePool := packet.FramePoolOutstanding()
	sys, sent, roamAt, log := streamAcrossHandoff(t, strategy)

	migs := sys.Manager.Migrations()
	if len(migs) != 1 || migs[0].Err != "" || migs[0].Strategy != strategy {
		t.Fatalf("migrations = %+v", migs)
	}
	lost, bypassed := tally(t, log, sent, roamAt)
	if lost != 0 {
		t.Errorf("%d of %d frames lost across the handoff", lost, len(sent))
	}
	if bypassed > 10 {
		t.Errorf("%d frames bypassed the chain; the target's boot is on the wire again", bypassed)
	}
	t.Logf("sent %d, bypassed the chain %d, lost %d, replayed at the target %d, downtime %v",
		len(sent), bypassed, lost, migs[0].ReplayedFrames, migs[0].Downtime)

	names := spanNames(sys)
	for _, want := range []string{"manager.detour", "rpc:agent.retarget", "rpc:agent.steer", "rpc:agent.unsteer"} {
		if names[want] != 1 {
			t.Errorf("%d %s spans, want 1 (all: %v)", names[want], want, names)
		}
	}
	if n := len(sys.Manager.Journal().Events(0, trace.EventDetour)); n != 1 {
		t.Errorf("%d detour events journaled, want 1", n)
	}
	if h := sys.Manager.MetricsSnapshot().Histograms["migration.detour_ms"]; h.Count != 1 {
		t.Errorf("migration.detour_ms holds %d samples, want 1", h.Count)
	}
	noStrayRules(t, sys, map[topology.StationID]int{"st-b": 2})
	auditClean(t, sys)
	for deadline := time.Now().Add(2 * time.Second); packet.FramePoolOutstanding() != basePool; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("frame pool: %d outstanding, %d before the test", packet.FramePoolOutstanding(), basePool)
		}
	}
	// One frame per millisecond: the un-chained frames are the wire gap.
	return log, migs[0], time.Duration(bypassed+lost) * time.Millisecond
}

// tally counts, of the frames that left the phone, those the server never saw
// and those it saw un-translated — the chain passed them by — and fails for
// one of the latter outside the first 15 ms after the roam began: everything
// after the detour landed is translated, stragglers sit within a few
// milliseconds of the roam.
func tally(t *testing.T, log *wireLog, sent []uint32, roamAt uint32) (lost, bypassed int) {
	t.Helper()
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, seq := range sent {
		rewritten, arrived := log.rewritten[seq]
		switch {
		case !arrived:
			lost++
		case !rewritten:
			bypassed++
			if seq < roamAt || seq > roamAt+15 {
				t.Errorf("frame %d (roam began at %d) reached the server un-translated", seq, roamAt)
			}
		}
	}
	return lost, bypassed
}

// onePort checks that every translated frame wore one NAT port: the flow
// opened before the move kept its mapping across it.
func onePort(t *testing.T, log *wireLog) {
	t.Helper()
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.natPorts) != 1 {
		t.Errorf("one flow wore NAT ports %v; its mapping did not move with the chain", log.natPorts)
	}
}

// TestLiveHandoffDetoursThroughSource is the wire-level regression test for
// the live roam gap, and for the manager's Downtime describing what the wire
// shows.
func TestLiveHandoffDetoursThroughSource(t *testing.T) {
	_, rep, gap := detouredHandoff(t, manager.StrategyLive)
	if d := gap - rep.Downtime; d > 10*time.Millisecond || d < -10*time.Millisecond {
		t.Errorf("wire gap %v, manager reports downtime %v", gap, rep.Downtime)
	}
}

// TestStatefulHandoffDetoursThroughSource is the same for stop-and-copy,
// which hid the target's whole boot in its freeze (some 120 un-translated
// frames) before it staged the boot behind the detour. Its freeze window is
// still the full checkpoint and restore, so here Downtime is not the wire gap
// but the time the target parked the client's frames: it must have replayed
// them (at most one per millisecond of it; fewer when a loaded box has the
// sender skip ticks), through the restored NAT and in order — the flow
// opened before the roam wears the same NAT port after it.
func TestStatefulHandoffDetoursThroughSource(t *testing.T) {
	log, rep, _ := detouredHandoff(t, manager.StrategyStateful)
	if rep.ReplayedFrames == 0 {
		t.Errorf("the target replayed no parked frame across a %v freeze", rep.Downtime)
	}
	if parked := time.Duration(rep.ReplayedFrames) * time.Millisecond; parked > rep.Downtime+10*time.Millisecond {
		t.Errorf("target replayed %d frames sent one per ms, manager reports a downtime of only %v", rep.ReplayedFrames, rep.Downtime)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for i := 1; i < len(log.order); i++ {
		if log.order[i] <= log.order[i-1] {
			t.Errorf("translated frame %d reached the server after %d", log.order[i], log.order[i-1])
		}
	}
	if len(log.natPorts) != 1 {
		t.Errorf("one flow wore NAT ports %v across the handoff; its mapping did not move with the chain", log.natPorts)
	}
}

// TestSplitHeadLiveHandoffDetours is the same stream across the live handoff
// of a split chain's head, with segment 1 anchored on a third station: the
// head's ingress leg takes the detour while its egress leg keeps feeding
// segment 1, so no more frames miss the head's NAT than miss a whole chain's
// — before legs, a split head sat the whole move out un-chained (some 430
// of these 520 frames).
func TestSplitHeadLiveHandoffDetours(t *testing.T) {
	cfg := twoStationConfig(manager.StrategyLive)
	// Sorting first makes it the aggregation hub.
	cfg.Stations = append(cfg.Stations, StationConfig{
		ID: "hub", Cells: []CellConfig{{ID: "cell-hub", Center: topology.Point{X: 1000}, Radius: 60}},
	})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	split := natChain("edge")
	split.Functions[0].Affinity = manager.AffinityNearClient
	split.Functions[1].Affinity = manager.AffinityAggregate
	sent, roamAt, log := streamAcrossHandoffOf(t, sys, split)
	sys.Manager.WaitIdle()

	migs := sys.Manager.Migrations()
	if len(migs) != 1 || migs[0].Err != "" || migs[0].Strategy != manager.StrategyLive || migs[0].Chain != "edge" {
		t.Fatalf("migrations = %+v, want the head alone, live", migs)
	}
	log.mu.Lock()
	var lost, missedHead int
	for _, seq := range sent {
		rewritten, arrived := log.rewritten[seq]
		switch {
		case !arrived:
			lost++
		case !rewritten:
			missedHead++
			if seq < roamAt || seq > roamAt+15 {
				t.Errorf("frame %d (roam began at %d) reached the server past the head", seq, roamAt)
			}
		}
	}
	log.mu.Unlock()
	if missedHead > 10 {
		t.Errorf("%d frames missed the head; the target's boot is on the wire", missedHead)
	}
	// Between the new head's activation and segment 1's re-splice its output
	// reaches the hub on a tunnel segment 1 does not listen on yet: those
	// frames pass it by (they still arrive). Nothing may be lost.
	if lost != 0 {
		t.Errorf("%d of %d frames lost across the handoff", lost, len(sent))
	}
	t.Logf("sent %d, missed the head %d, lost %d", len(sent), missedHead, lost)

	names := spanNames(sys)
	for want, n := range map[string]int{"manager.detour": 1, "rpc:agent.steer": 1, "rpc:agent.unsteer": 1, "rpc:agent.retarget": 2} {
		if names[want] != n {
			t.Errorf("%d %s spans, want %d (all: %v)", names[want], want, n, names)
		}
	}
	for station, chain := range map[topology.StationID]string{"st-b": "edge", "hub": "edge#1"} {
		if err := sys.WaitChainOn(station, chain, time.Second); err != nil {
			t.Error(err)
		}
	}
	// The head: one rule off the access port, two on its egress tunnel;
	// segment 1: two on its ingress tunnel, one at the uplink.
	noStrayRules(t, sys, map[topology.StationID]int{"st-b": 3, "hub": 3})
	auditClean(t, sys)
}

// TestSplitHeadLeavingItsHubDetours bounds the one transient a detoured split
// head still has (DESIGN.md, "Steering: legs"): the head leaves the very
// station that anchors segment 1 — st-a, the hub of two stations since it
// sorts first — so the new head's first forward frames reach st-a on the
// tunnel the frozen source's ingress leg still listens on, and go with the
// source when it is removed an RPC later. Those are the only frames the
// handoff may lose.
func TestSplitHeadLeavingItsHubDetours(t *testing.T) {
	sys, _ := demoSystem(t, manager.StrategyLive)
	split := natChain("edge")
	split.Functions[0].Affinity = manager.AffinityNearClient
	split.Functions[1].Affinity = manager.AffinityAggregate
	sent, roamAt, log := streamAcrossHandoffOf(t, sys, split)
	if migs := sys.Manager.Migrations(); len(migs) != 1 || migs[0].Err != "" || migs[0].Chain != "edge" || migs[0].From != "st-a" {
		t.Fatalf("migrations = %+v, want the head alone, off the hub", migs)
	}
	lost, missedHead := tally(t, log, sent, roamAt)
	t.Logf("sent %d, missed the head %d, lost %d", len(sent), missedHead, lost)
	if lost > 5 || missedHead > 10 {
		t.Errorf("%d frames lost, %d past the head; the transient is an RPC or two of frames", lost, missedHead)
	}
	auditClean(t, sys)
}

// TestOperatorMoveAwayFromTheClient streams across an operator MigrateChain of
// the head to st-b while the phone stays at st-a. The source serves while the
// target boots; the freeze opens with st-a steering the phone to st-b, where
// the target parks the freeze window's frames and replays them through the
// restored NAT, and from there the chain serves over the tunnel. At the parent
// nothing steered the phone anywhere: every frame after the move passed the
// chain by, and the audit reported convergence.
func TestOperatorMoveAwayFromTheClient(t *testing.T) {
	sys, _ := demoSystem(t, manager.StrategyStateful)
	var rep manager.MigrationReport
	sent, roamAt, log := streamAcross(t, sys, natChain("edge"), func(func() uint32) {
		var err error
		if rep, err = sys.Manager.MigrateChain("phone", "edge", "st-b"); err != nil {
			t.Fatal(err)
		}
	})
	lost, bypassed := tally(t, log, sent, roamAt)
	t.Logf("sent %d, bypassed the chain %d, lost %d, replayed at the target %d, downtime %v",
		len(sent), bypassed, lost, rep.ReplayedFrames, rep.Downtime)
	if lost != 0 || bypassed != 0 {
		t.Errorf("%d frames lost, %d past the chain; the move should cost neither", lost, bypassed)
	}
	if rep.ReplayedFrames == 0 {
		t.Errorf("the target replayed no parked frame across a %v freeze", rep.Downtime)
	}
	onePort(t, log)
	if !sys.Agent("st-a").Steered("phone") {
		t.Error("st-a does not steer the phone to its chain on st-b")
	}
	auditClean(t, sys)
}

// TestLaggingQoSChainServesOverTheTunnel streams across a handoff the QoS
// stay-rule answers with no move: st-a is 0.4 ms from st-b there and back,
// inside the chain's 5 ms budget, so the chain stays one hop behind and st-b
// steers the phone to it over the shaped link. Nothing freezes — no
// migration, nothing parked — and every frame past the steer landing is
// translated. At the parent the chain stayed and served nothing: every frame
// after the roam passed it by, and the audit reported convergence. (A shaped
// link delays frame after frame, so its delay caps its rate: the link is kept
// short enough to carry the 1 kHz stream.)
func TestLaggingQoSChainServesOverTheTunnel(t *testing.T) {
	cfg := twoStationConfig(manager.StrategyStateful)
	cfg.Topology = topology.NewGraph()
	cfg.Topology.SetLink(topology.Link{A: "st-a", B: "st-b", Delay: 200 * time.Microsecond})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	chain := natChain("edge")
	chain.MaxRTTMs = 5
	sent, roamAt, log := streamAcrossHandoffOf(t, sys, chain)
	if migs := sys.Manager.Migrations(); len(migs) != 0 {
		t.Fatalf("the budgeted chain moved: %+v", migs)
	}
	lost, bypassed := tally(t, log, sent, roamAt)
	t.Logf("sent %d, bypassed the chain %d, lost %d", len(sent), bypassed, lost)
	if lost != 0 {
		t.Errorf("%d of %d frames lost across the handoff", lost, len(sent))
	}
	if bypassed > 10 {
		t.Errorf("%d frames bypassed the lagging chain", bypassed)
	}
	onePort(t, log)
	if !sys.Agent("st-b").Steered("phone") {
		t.Error("st-b does not steer the phone to its chain on st-a")
	}
	auditClean(t, sys)
}

// A shared-pool attachment has no client leg of its own: the manager knows
// from the deploy's answer, so a live handoff of one builds no tunnel, asks
// no agent and journals nothing — and the next handoff, whose source is the
// copy this move deployed, likewise.
func TestSharedChainHandoffAsksForNoDetour(t *testing.T) {
	sys := liveSystem(t, 2, manager.StrategyLive)
	shareable := manager.ChainSpec{Name: "edge", Functions: []agent.NFSpec{{Kind: "counter", Name: "acct0"}}}
	if err := sys.AttachChain("phone", shareable); err != nil {
		t.Fatal(err)
	}
	for i, cell := range []topology.CellID{"cell-1", "cell-0"} {
		to := topology.StationID(fmt.Sprintf("st-%d", 1-i))
		if err := sys.Topo.Attach("phone", cell); err != nil {
			t.Fatal(err)
		}
		if err := sys.WaitClientAt("phone", to, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		sys.Manager.WaitIdle()
		if err := sys.WaitChainOn(to, "edge", 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	migs := sys.Manager.Migrations()
	if len(migs) != 2 || migs[0].Err != "" || migs[1].Err != "" || migs[1].Strategy != manager.StrategyLive {
		t.Fatalf("migrations = %+v", migs)
	}
	if pools := sys.Agent("st-0").Report().Pools; len(pools) == 0 {
		t.Fatal("the chain is not a shared attachment: the test exercises nothing")
	}
	if evs := sys.Manager.Journal().Events(0, trace.EventDetour); len(evs) != 0 {
		t.Errorf("detour events journaled for a shared chain: %+v", evs)
	}
	for _, st := range []topology.StationID{"st-0", "st-1"} {
		if tun := sys.Agent(st).Tunnels(); len(tun) != 0 {
			t.Errorf("%s was given tunnels %v for a detour nobody can take", st, tun)
		}
	}
	auditClean(t, sys)
}

// TestSharedPoolClientRoamsBesideAnotherSharer roams one sharer of a pooled
// instance back and forth under the live strategy: its attachment moves, the
// other sharer's must stay enabled where it is.
func TestSharedPoolClientRoamsBesideAnotherSharer(t *testing.T) {
	sys := liveSystem(t, 2, manager.StrategyLive)
	// A second client anchors the shared instance on st-0.
	if err := sys.AddClient("tablet", packet.MAC{2, 0, 0, 0, 0, 0x11}, packet.IP{10, 0, 0, 11}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("tablet", "cell-0"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("tablet", "st-0", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	shareable := func(name string) manager.ChainSpec {
		return manager.ChainSpec{
			Name: name,
			Functions: []agent.NFSpec{
				{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
				{Kind: "counter", Name: "acct"},
			},
		}
	}
	if err := sys.AttachChain("phone", shareable("edge-phone")); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachChain("tablet", shareable("edge-tablet")); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()

	// Ping-pong the phone while the tablet keeps sharing the st-0 instance.
	cells := []topology.CellID{"cell-1", "cell-0"}
	stations := []topology.StationID{"st-1", "st-0"}
	for i := 0; i < 6; i++ {
		if err := sys.Topo.Attach("phone", cells[i%2]); err != nil {
			t.Fatal(err)
		}
		if err := sys.WaitClientAt("phone", stations[i%2], 5*time.Second); err != nil {
			t.Fatal(err)
		}
		sys.Manager.WaitIdle()
	}

	for _, rep := range sys.Manager.Migrations() {
		if rep.Err != "" {
			t.Fatalf("failed migration: %+v", rep)
		}
	}
	// The tablet's attachment must have stayed enabled on st-0 throughout.
	if on, err := sys.Agent("st-0").ChainEnabled("edge-tablet"); err != nil || !on {
		t.Fatalf("tablet chain enabled = %v, %v", on, err)
	}
	if on, err := sys.Agent("st-0").ChainEnabled("edge-phone"); err != nil || !on {
		t.Fatalf("phone chain enabled = %v, %v", on, err)
	}
	auditClean(t, sys)
}

// TestSecondChainOfAClientSeesNoTraffic streams 1 kHz from a client with two
// NAT chains at its station — a, then b (the harness's, seeded with 500
// flows), a's NAT on its own port range — and reports what each chain
// processed and which NAT ports reached the server. Both chains' steering
// rules match the client's access port, and its address on the uplink, at
// one priority, and a tie goes to the older rule: a takes every frame, and b
// — attached, enabled, placed, audited clean — sees none. A ChainSpec selects
// no traffic, so a client's second chain has none of its own.
func TestSecondChainOfAClientSeesNoTraffic(t *testing.T) {
	sys, _ := demoSystem(t, manager.StrategyStateful)
	a := natChain("a")
	a.Functions[0].Params = nf.Params{"nat_ip": "192.168.77.1", "ports": "40000-62000"}
	if err := sys.AttachChain("phone", a); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, log := streamAcross(t, sys, natChain("b"), func(func() uint32) { time.Sleep(40 * time.Millisecond) })

	processed := map[string]uint64{}
	for _, cs := range sys.Agent("st-a").Report().Chains {
		processed[cs.Chain] = cs.Processed
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	t.Logf("chain a processed %d frames, chain b %d; NAT ports at the server %v", processed["a"], processed["b"], log.natPorts)
	if processed["b"] != 0 {
		t.Errorf("chain b processed %d frames: a client's second chain is reached after all", processed["b"])
	}
	// Every translated frame wore a's first port, and a processed each one.
	if len(log.natPorts) != 1 || log.natPorts[40000] != len(log.order) || processed["a"] != uint64(len(log.order)) {
		t.Errorf("chain a processed %d frames, %d reached the server translated wearing NAT ports %v; want all of them on a's port 40000",
			processed["a"], len(log.order), log.natPorts)
	}
	auditClean(t, sys)
}
