package manager_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/trace"
)

// TestStatefulDisableFailureRemovesOrphanTarget is the regression test for
// the orphaned-target hole in the stop-and-copy branch: when the source's
// freeze failed, the migration returned with the already-deployed target
// copy left in place — a disabled deployment no client record points at,
// flagged forever by the invariant audit. The freeze is the first step of the
// source's last checkpoint: the source must still serve, and the placement
// stay with it.
func TestStatefulDisableFailureRemovesOrphanTarget(t *testing.T) {
	mgr, src, dst := migrationFixture(t, manager.StrategyStateful)
	src.failOn(agent.MethodDisable)

	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err == nil || rep.Err == "" {
		t.Fatalf("migration unexpectedly succeeded: %+v", rep)
	}
	if !dst.sawAfter(agent.MethodDeploy, "") {
		t.Fatalf("target never deployed; calls: %v", dst.callLog())
	}
	if !dst.sawAfter(agent.MethodRemove, agent.MethodDeploy) {
		t.Fatalf("orphaned target never removed after the source's freeze failed; calls: %v", dst.callLog())
	}
	if enabled, present := src.hosts("chain"); !present || !enabled {
		t.Fatalf("source left present=%v enabled=%v after its freeze failed; calls: %v", present, enabled, src.callLog())
	}
	for _, pl := range mgr.Placements() {
		if pl.Chain == "chain" && pl.Station != "st-src" {
			t.Fatalf("placement moved despite failed migration: %+v", pl)
		}
	}
}

// TestStatefulCheckpointFailureStillRollsBack pins the overlap join's other
// failure leg: a failed freezing Checkpoint re-enables the source and removes
// the concurrently-deployed target.
func TestStatefulCheckpointFailureStillRollsBack(t *testing.T) {
	mgr, src, dst := migrationFixture(t, manager.StrategyStateful)
	src.failOn(agent.MethodCheckpoint)

	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err == nil || rep.Err == "" {
		t.Fatalf("migration unexpectedly succeeded: %+v", rep)
	}
	if !src.sawAfter(agent.MethodEnable, agent.MethodCheckpoint) {
		t.Fatalf("source never re-enabled after freeze; calls: %v", src.callLog())
	}
	if !dst.sawAfter(agent.MethodRemove, agent.MethodDeploy) {
		t.Fatalf("target never removed after checkpoint failure; calls: %v", dst.callLog())
	}
}

// TestHandoffCoalescing drives the storm-control path directly: with one
// worker pinned mid-migration, two further handoffs for a second client
// arrive while its first is still queued — the later one must supersede
// the earlier in place (one reconcile, not two), emit a storm-coalesced
// journal event, and bump the coalesced counter.
func TestHandoffCoalescing(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0",
		manager.WithStrategy(manager.StrategyStateful),
		manager.WithHandoffWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src := newScriptedAgent(t, mgr, "st-src")
	dst := newScriptedAgent(t, mgr, "st-dst")

	for _, c := range []string{"phone", "tab"} {
		if err := src.peer.Call(agent.MethodClientEvent,
			agent.ClientEvent{Station: "st-src", Client: c, Connected: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	mgr.WaitIdle()
	for _, c := range []string{"phone", "tab"} {
		spec := manager.ChainSpec{Name: "chain-" + c, Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
		if err := mgr.AttachChain(c, spec); err != nil {
			t.Fatal(err)
		}
	}

	// Pin the single worker inside phone's migration (the source-side
	// freezing checkpoint blocks), so everything that arrives next stays
	// queued.
	gate := src.holdOn(agent.MethodCheckpoint)
	if err := dst.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-dst", Client: "phone", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	// tab hands off to st-dst, then back to st-src before a worker could
	// claim it: the second event must supersede the first in the queue.
	if err := dst.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-dst", Client: "tab", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := src.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-src", Client: "tab", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}

	close(gate.release)
	mgr.WaitIdle()

	evs := mgr.Journal().Events(0, trace.EventStormCoalesced)
	if len(evs) != 1 || evs[0].Subject != "tab" {
		t.Fatalf("storm-coalesced events = %+v, want exactly one for tab", evs)
	}
	if got := mgr.MetricsSnapshot().Counters["handoff.coalesced"]; got != 1 {
		t.Fatalf("handoff.coalesced = %d, want 1", got)
	}
	// The superseded handoff never ran: tab's chain must still sit on
	// st-src with zero migrations recorded for it.
	for _, rep := range mgr.Migrations() {
		if rep.Client == "tab" {
			t.Fatalf("superseded handoff still migrated: %+v", rep)
		}
	}
	if st, _ := mgr.ClientStation("tab"); st != "st-src" {
		t.Fatalf("tab at %q, want st-src", st)
	}
}

// TestStationConcurrencyLimit pins one station's admission limit: with
// WithStationConcurrency(1), two clients handing off to the same target
// must migrate one at a time, and the skipped claim shows up in the
// saturation counter.
func TestStationConcurrencyLimit(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0",
		manager.WithStrategy(manager.StrategyStateful),
		manager.WithHandoffWorkers(4),
		manager.WithStationConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src := newScriptedAgent(t, mgr, "st-src")
	dst := newScriptedAgent(t, mgr, "st-dst")

	for _, c := range []string{"phone", "tab"} {
		if err := src.peer.Call(agent.MethodClientEvent,
			agent.ClientEvent{Station: "st-src", Client: c, Connected: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	mgr.WaitIdle()
	for _, c := range []string{"phone", "tab"} {
		spec := manager.ChainSpec{Name: "chain-" + c, Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
		if err := mgr.AttachChain(c, spec); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the first migration's freeze; the second handoff targets the
	// same station and must queue behind the limit instead of running on a
	// free worker.
	gate := src.holdOn(agent.MethodCheckpoint)
	for _, c := range []string{"phone", "tab"} {
		if err := dst.peer.Call(agent.MethodClientEvent,
			agent.ClientEvent{Station: "st-dst", Client: c, Connected: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-gate.entered
	// Give the free workers a moment to (wrongly) start the second
	// migration if the limit were broken, then check: exactly one freezing
	// Checkpoint has reached the source.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if freezes := countCalls(src, agent.MethodCheckpoint); freezes != 1 {
		t.Fatalf("station limit 1 admitted %d concurrent migrations", freezes)
	}
	close(gate.release)
	mgr.WaitIdle()

	snap := mgr.MetricsSnapshot()
	if snap.Counters["handoff.station_saturated.st-dst"] == 0 {
		t.Fatalf("saturation counter never incremented: %v", snap.Counters)
	}
	// Both migrations eventually completed.
	done := 0
	for _, rep := range mgr.Migrations() {
		if rep.Err == "" && rep.To == "st-dst" {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("completed migrations to st-dst = %d, want 2", done)
	}
}

// TestManagerHandoffStormRace floods the manager with concurrent handoffs
// for many clients across two stations while chains attach and detach —
// meant to run under -race; correctness asserts only convergence (every
// surviving chain lands where its client is).
func TestManagerHandoffStormRace(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0",
		manager.WithStrategy(manager.StrategyCold))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src := newScriptedAgent(t, mgr, "st-src")
	dst := newScriptedAgent(t, mgr, "st-dst")
	stations := map[string]*scriptedAgent{"st-src": src, "st-dst": dst}

	const clients = 40
	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
		if err := src.peer.Call(agent.MethodClientEvent,
			agent.ClientEvent{Station: "st-src", Client: names[i], Connected: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	mgr.WaitIdle()
	for _, c := range names {
		spec := manager.ChainSpec{Name: "chain-" + c, Functions: []agent.NFSpec{{Kind: "counter", Name: "n0"}}}
		if err := mgr.AttachChain(c, spec); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i, c := range names {
		wg.Add(1)
		go func(i int, c string) {
			defer wg.Done()
			seq := []string{"st-dst", "st-src", "st-dst"}
			if i%2 == 1 {
				seq = []string{"st-dst", "st-src"}
			}
			for _, st := range seq {
				stations[st].peer.Call(agent.MethodClientEvent,
					agent.ClientEvent{Station: st, Client: c, Connected: true}, nil)
			}
			if i%5 == 0 {
				// Interleave attach/detach churn with the handoffs.
				extra := manager.ChainSpec{Name: "extra-" + c, Functions: []agent.NFSpec{{Kind: "counter", Name: "n1"}}}
				if err := mgr.AttachChain(c, extra); err == nil {
					mgr.DetachChain(c, extra.Name)
				}
			}
		}(i, c)
	}
	wg.Wait()
	mgr.WaitIdle()

	for _, pl := range mgr.Placements() {
		if st, ok := mgr.ClientStation(pl.Client); ok && st != pl.Station {
			t.Fatalf("chain %s/%s at %s but client at %s", pl.Client, pl.Chain, pl.Station, st)
		}
	}
}
