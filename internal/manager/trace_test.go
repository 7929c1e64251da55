package manager_test

import (
	"encoding/json"
	"sync"
	"testing"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/trace"
	"gnf/internal/wire"
)

// headerAgent is a wire-level fake station that records the trace header
// riding every agent.* request — the instrument for proving trace-context
// propagation through the migration pipeline without a dataplane.
type headerAgent struct {
	peer *wire.Peer

	mu      sync.Mutex
	headers map[string][]string // method -> headers in arrival order
}

func newHeaderAgent(t *testing.T, mgr *manager.Manager, station string) *headerAgent {
	t.Helper()
	return dialHeaderAgent(t, mgr, agent.RegisterSpec{Station: station})
}

func dialHeaderAgent(t *testing.T, mgr *manager.Manager, reg agent.RegisterSpec) *headerAgent {
	t.Helper()
	peer, err := wire.Dial(mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ha := &headerAgent{peer: peer, headers: map[string][]string{}}
	rec := func(method string, result any) {
		peer.HandleTraced(method, func(hdr string, _ json.RawMessage) (any, error) {
			ha.mu.Lock()
			ha.headers[method] = append(ha.headers[method], hdr)
			ha.mu.Unlock()
			return result, nil
		})
	}
	for _, m := range []string{agent.MethodDeploy, agent.MethodRemove, agent.MethodEnable,
		agent.MethodDisable, agent.MethodRestore,
		agent.MethodRetarget, agent.MethodSteer, agent.MethodUnsteer} {
		rec(m, nil)
	}
	rec(agent.MethodCheckpoint, agent.CheckpointResult{State: []byte("blob"), Round: 1})
	go peer.Run()
	if err := peer.Call(agent.MethodRegister, reg, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	return ha
}

func (ha *headerAgent) headersFor(method string) []string {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	return append([]string(nil), ha.headers[method]...)
}

// TestTraceContextPropagatesAndNests drives one live migration through
// scripted stations and checks the tracing contract end to end: every RPC
// of the pipeline carries a parseable header of the same trace, each RPC
// rides its own span, and the manager's stored spans form one connected
// tree rooted at the migrate request.
func TestTraceContextPropagatesAndNests(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(manager.StrategyLive))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src := newHeaderAgent(t, mgr, "st-src")
	dst := newHeaderAgent(t, mgr, "st-dst")
	if err := src.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-src", Client: "phone", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	mgr.WaitIdle()
	spec := manager.ChainSpec{Name: "chain", Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
	if err := mgr.AttachChain("phone", spec); err != nil {
		t.Fatal(err)
	}

	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID == "" {
		t.Fatal("migration report carries no trace id")
	}

	// Round-trip: every pipeline RPC carried a valid header of this trace.
	probes := []struct {
		ag     *headerAgent
		method string
	}{
		{dst, agent.MethodDeploy},
		{src, agent.MethodCheckpoint},
		{dst, agent.MethodRestore},
		{src, agent.MethodDisable},
		{dst, agent.MethodEnable},
	}
	for _, p := range probes {
		hs := p.ag.headersFor(p.method)
		if len(hs) == 0 {
			t.Fatalf("no %s call recorded", p.method)
		}
		ctx, ok := trace.ParseHeader(hs[0])
		if !ok {
			t.Fatalf("%s header %q does not parse", p.method, hs[0])
		}
		if ctx.TraceID != rep.TraceID {
			t.Errorf("%s rode trace %s, want %s", p.method, ctx.TraceID, rep.TraceID)
		}
	}

	// Per-RPC spans: Checkpoint and Enable must not share a parent span ID.
	pc, _ := trace.ParseHeader(src.headersFor(agent.MethodCheckpoint)[0])
	en, _ := trace.ParseHeader(dst.headersFor(agent.MethodEnable)[0])
	if pc.SpanID == en.SpanID {
		t.Error("Checkpoint and Enable rode the same span — expected one span per RPC")
	}

	// Nesting: the stored spans form one connected tree, request → migrate
	// → per-RPC children.
	spans := mgr.Tracer().Trace(rep.TraceID)
	if n := trace.ConnectedSize(spans); n != len(spans) || n < 5 {
		t.Fatalf("span tree: %d of %d spans connected, want all of >= 5", n, len(spans))
	}
	byName := map[string]trace.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["manager.migrate_request"]
	if !ok || root.Parent != "" {
		t.Fatalf("missing or non-root request span: %+v", root)
	}
	mig, ok := byName["manager.migrate"]
	if !ok || mig.Parent != root.SpanID {
		t.Fatalf("migrate span not nested under the request: %+v", mig)
	}
	if rpc, ok := byName["rpc:"+agent.MethodEnable]; !ok || rpc.Parent != mig.SpanID {
		t.Fatalf("enable RPC span not nested under migrate: %+v", rpc)
	}
}

// TestHandoffDetourIsTraced checks where a live handoff's detour shows up:
// one manager.detour span under the handoff — the render before the move,
// beside manager.migrate — with the Retarget and Steer RPCs under it (the
// Unsteer at the freeze belongs to the migration), one migration.detour_ms
// sample and one detour journal event on the same trace.
func TestHandoffDetourIsTraced(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(manager.StrategyLive))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src := newHeaderAgent(t, mgr, "st-src")
	dst := newHeaderAgent(t, mgr, "st-dst")
	announce := func(ha *headerAgent, station string) {
		t.Helper()
		if err := ha.peer.Call(agent.MethodClientEvent,
			agent.ClientEvent{Station: station, Client: "phone", Connected: true}, nil); err != nil {
			t.Fatal(err)
		}
		mgr.WaitIdle()
	}
	announce(src, "st-src")
	spec := manager.ChainSpec{Name: "chain", Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
	if err := mgr.AttachChain("phone", spec); err != nil {
		t.Fatal(err)
	}
	announce(dst, "st-dst")

	migs := mgr.Migrations()
	if len(migs) != 1 || migs[0].Err != "" || migs[0].TraceID == "" {
		t.Fatalf("migrations = %+v", migs)
	}
	spans := mgr.Tracer().Trace(migs[0].TraceID)
	if n := trace.ConnectedSize(spans); n != len(spans) {
		t.Fatalf("span tree: %d of %d spans connected", n, len(spans))
	}
	byName := map[string]trace.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	det, ok := byName["manager.detour"]
	if !ok || det.Parent != byName["manager.handoff"].SpanID || byName["manager.migrate"].Parent != det.Parent {
		t.Fatalf("detour span missing or not beside manager.migrate under the handoff: %+v", det)
	}
	for _, m := range []string{agent.MethodRetarget, agent.MethodSteer} {
		if rpc, ok := byName["rpc:"+m]; !ok || rpc.Parent != det.SpanID {
			t.Errorf("%s RPC span not nested under the detour: %+v", m, rpc)
		}
	}
	if rpc, ok := byName["rpc:"+agent.MethodUnsteer]; !ok || rpc.Parent != byName["manager.migrate"].SpanID {
		t.Errorf("unsteer RPC span not nested under the migration: %+v", rpc)
	}
	if h := mgr.MetricsSnapshot().Histograms["migration.detour_ms"]; h.Count != 1 {
		t.Errorf("migration.detour_ms holds %d samples, want 1", h.Count)
	}
	evs := mgr.Journal().Events(0, trace.EventDetour)
	if len(evs) != 1 || evs[0].TraceID != migs[0].TraceID || evs[0].Subject != "phone" || evs[0].Station != "st-dst" || evs[0].Err != "" {
		t.Errorf("detour journal events = %+v", evs)
	}
}

// TestUntracedMigrationStaysUntraced pins the zero-overhead path: with
// sampling off, RPCs carry no header and the report links no trace.
func TestUntracedMigrationStaysUntraced(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0",
		manager.WithStrategy(manager.StrategyStateful), manager.WithTraceSampleRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src := newHeaderAgent(t, mgr, "st-src")
	dst := newHeaderAgent(t, mgr, "st-dst")
	if err := src.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-src", Client: "phone", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	mgr.WaitIdle()
	spec := manager.ChainSpec{Name: "chain", Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
	if err := mgr.AttachChain("phone", spec); err != nil {
		t.Fatal(err)
	}
	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != "" {
		t.Fatalf("unsampled migration carries trace id %q", rep.TraceID)
	}
	for _, m := range []string{agent.MethodDeploy, agent.MethodEnable} {
		for _, h := range dst.headersFor(m) {
			if h != "" {
				t.Errorf("unsampled %s carried header %q, want none", m, h)
			}
		}
	}
}

// TestOperatorMovesAreTraced pins tracing parity across the move engine's
// callers: a segment move and a client offload each yield one connected
// tree — request → one migrate span per deployment moved → per-RPC
// children — exactly like a chain migration. Both used to issue untraced
// calls and were invisible in the span store.
func TestOperatorMovesAreTraced(t *testing.T) {
	setup := func(t *testing.T) *manager.Manager {
		mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(manager.StrategyStateful))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mgr.Close() })
		newHeaderAgent(t, mgr, "st-agg") // sorts first: the aggregation hub
		newHeaderAgent(t, mgr, "st-dst")
		src := newHeaderAgent(t, mgr, "st-src")
		dialHeaderAgent(t, mgr, agent.RegisterSpec{Station: "nimbus", Cloud: true})
		if err := src.peer.Call(agent.MethodClientEvent,
			agent.ClientEvent{Station: "st-src", Client: "phone", Connected: true}, nil); err != nil {
			t.Fatal(err)
		}
		mgr.WaitIdle()
		return mgr
	}
	// checkTree asserts the trace is one connected tree holding `moves`
	// migrate spans under a single request root, with the named RPC nested
	// under a migrate span.
	checkTree := func(t *testing.T, mgr *manager.Manager, traceID string, moves int, rpc string) {
		t.Helper()
		if traceID == "" {
			t.Fatal("report carries no trace id")
		}
		spans := mgr.Tracer().Trace(traceID)
		if n := trace.ConnectedSize(spans); n != len(spans) {
			t.Fatalf("span tree: %d of %d spans connected", n, len(spans))
		}
		migrates := map[string]bool{}
		roots := 0
		for _, sp := range spans {
			switch sp.Name {
			case "manager.migrate_request":
				if sp.Parent == "" {
					roots++
				}
			case "manager.migrate":
				migrates[sp.SpanID] = true
			}
		}
		if roots != 1 || len(migrates) != moves {
			t.Fatalf("tree has %d request roots and %d migrate spans, want 1 and %d", roots, len(migrates), moves)
		}
		for _, sp := range spans {
			if sp.Name == "rpc:"+rpc && migrates[sp.Parent] {
				return
			}
		}
		t.Fatalf("no rpc:%s span nested under a migrate span", rpc)
	}

	t.Run("MigrateSegment", func(t *testing.T) {
		mgr := setup(t)
		split := manager.ChainSpec{Name: "web", Functions: []agent.NFSpec{
			{Kind: "counter", Name: "c0", Affinity: manager.AffinityNearClient},
			{Kind: "counter", Name: "c1", Affinity: manager.AffinityAggregate},
		}}
		if err := mgr.AttachChain("phone", split); err != nil {
			t.Fatal(err)
		}
		rep, err := mgr.MigrateSegment("phone", "web", 1, "st-dst")
		if err != nil {
			t.Fatal(err)
		}
		checkTree(t, mgr, rep.TraceID, 1, agent.MethodRetarget)
	})

	t.Run("OffloadClient", func(t *testing.T) {
		mgr := setup(t)
		for _, name := range []string{"chain-a", "chain-b"} {
			spec := manager.ChainSpec{Name: name, Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
			if err := mgr.AttachChain("phone", spec); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := mgr.OffloadClient("phone", "nimbus")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Chains) != 2 || rep.Chains[0].TraceID != rep.Chains[1].TraceID {
			t.Fatalf("offload reports do not share one trace: %+v", rep.Chains)
		}
		checkTree(t, mgr, rep.Chains[0].TraceID, 2, agent.MethodRestore)
	})
}
