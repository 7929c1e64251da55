package manager_test

import (
	"strings"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/metrics"
	"gnf/internal/topology"
	"gnf/internal/trace"
)

// report pushes one health report on the scripted agent's wire, so
// placement sees the station as known-load.
func (sa *scriptedAgent) report(cpu float64) {
	sa.peer.Notify(agent.MethodReport, agent.Report{
		Station: sa.station,
		Usage:   metrics.ResourceUsage{CPUPercent: cpu},
	})
}

// closedWindow is an activation window entirely in the past: evaluation
// always wants the chain disabled.
func closedWindow() manager.Window {
	past := time.Now().Add(-time.Hour)
	return manager.Window{EnableAt: past, DisableAt: past.Add(time.Minute)}
}

// countCalls tallies occurrences of method in the agent's call log.
func countCalls(sa *scriptedAgent, method string) int {
	n := 0
	for _, c := range sa.callLog() {
		if c == method {
			n++
		}
	}
	return n
}

// TestReattachedChainDoesNotInheritWindow is the regression test for the
// stale-schedule leak: DetachChain never removed the (client, chain)
// window, so a chain re-attached under the same name silently inherited
// it and the next evaluation disabled the fresh chain.
func TestReattachedChainDoesNotInheritWindow(t *testing.T) {
	mgr, src, _ := migrationFixture(t, manager.StrategyStateful)
	if err := mgr.Schedule("phone", "chain", closedWindow()); err != nil {
		t.Fatal(err)
	}
	if n := mgr.EvaluateSchedules(); n != 1 {
		t.Fatalf("closed window made %d transitions, want 1 (disable)", n)
	}
	if err := mgr.DetachChain("phone", "chain"); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Schedules(); len(got) != 0 {
		t.Fatalf("window survived the detach: %+v", got)
	}
	spec := manager.ChainSpec{Name: "chain", Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
	if err := mgr.AttachChain("phone", spec); err != nil {
		t.Fatal(err)
	}
	if n := mgr.EvaluateSchedules(); n != 0 {
		t.Fatalf("re-attached chain inherited the detached chain's window (%d transitions)", n)
	}
	// Exactly one disable ever reached the agent — the legitimate one.
	if got := countCalls(src, agent.MethodDisable); got != 1 {
		t.Fatalf("source saw %d disables, want 1; calls: %v", got, src.callLog())
	}
}

// TestScheduleReplacesAndUnschedule pins the rest of the window
// lifecycle: re-registration replaces instead of stacking a competing
// window, and Unschedule removes it outright.
func TestScheduleReplacesAndUnschedule(t *testing.T) {
	mgr, _, _ := migrationFixture(t, manager.StrategyStateful)
	if err := mgr.Schedule("phone", "chain", closedWindow()); err != nil {
		t.Fatal(err)
	}
	open := manager.Window{EnableAt: time.Now().Add(-time.Minute)}
	if err := mgr.Schedule("phone", "chain", open); err != nil {
		t.Fatal(err)
	}
	got := mgr.Schedules()
	if len(got) != 1 {
		t.Fatalf("duplicate registration stacked windows: %+v", got)
	}
	if !got[0].Window.DisableAt.IsZero() {
		t.Fatalf("replacement kept the old window: %+v", got[0].Window)
	}
	// The open window wants the chain enabled; it already is, but the
	// first evaluation records the state (one transition at most).
	mgr.EvaluateSchedules()
	if n := mgr.EvaluateSchedules(); n != 0 {
		t.Fatalf("replaced window still flapping: %d transitions", n)
	}
	if !mgr.Unschedule("phone", "chain") {
		t.Fatal("Unschedule found no window")
	}
	if mgr.Unschedule("phone", "chain") {
		t.Fatal("second Unschedule found a window")
	}
	if got := mgr.Schedules(); len(got) != 0 {
		t.Fatalf("schedules after Unschedule: %+v", got)
	}
}

// TestEvaluateSchedulesRevalidatesPlacement is the regression test for
// the snapshot race: EvaluateSchedules used to snapshot deployedOn under
// the lock but apply the Enable/Disable outside it, so a concurrent
// migration landed the call on the station the chain had just left —
// leaving the chain's real state diverged from the recorded one. The
// evaluation must now serialise against the migration and deliver the
// disable to the chain's actual station.
func TestEvaluateSchedulesRevalidatesPlacement(t *testing.T) {
	mgr, _, dst := migrationFixture(t, manager.StrategyStateful)
	if err := mgr.Schedule("phone", "chain", closedWindow()); err != nil {
		t.Fatal(err)
	}

	// Pin the migration mid-flight on the target's deploy, with the
	// chain's placement about to move st-src -> st-dst.
	g := dst.holdOn(agent.MethodDeploy)
	migDone := make(chan error, 1)
	go func() {
		_, err := mgr.MigrateChain("phone", "chain", "st-dst")
		migDone <- err
	}()
	<-g.entered

	evalDone := make(chan int, 1)
	go func() { evalDone <- mgr.EvaluateSchedules() }()

	close(g.release)
	if err := <-migDone; err != nil {
		t.Fatal(err)
	}
	if n := <-evalDone; n != 1 {
		t.Fatalf("evaluation applied %d transitions, want 1", n)
	}
	// The disable must land where the chain actually lives — on st-dst,
	// after the migration enabled it there — never on the source it left.
	if !dst.sawAfter(agent.MethodDisable, agent.MethodEnable) {
		t.Fatalf("schedule disable missed the migrated chain; dst calls: %v", dst.callLog())
	}
}

// TestEvacuationAvoidsNeverReportedStation drives the acceptance
// property end to end: evacuating the client's own station must send its
// chain to the station with known load, not the silent one.
func TestEvacuationAvoidsNeverReportedStation(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(manager.StrategyStateful))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	src := newScriptedAgent(t, mgr, "st-src")
	newScriptedAgent(t, mgr, "st-aa-ghost") // registers, never reports
	busy := newScriptedAgent(t, mgr, "st-zz-busy")
	busy.report(90)
	waitFor(t, 2*time.Second, func() bool {
		for _, si := range mgr.StationInfos() {
			if si.Station == "st-zz-busy" && !si.Stale {
				return true
			}
		}
		return false
	}, "busy station to report")

	if err := src.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-src", Client: "phone", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	mgr.WaitIdle()
	spec := manager.ChainSpec{Name: "chain", Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
	if err := mgr.AttachChain("phone", spec); err != nil {
		t.Fatal(err)
	}

	reports, err := mgr.EvacuateStation("st-src")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Err != "" {
		t.Fatalf("reports = %+v", reports)
	}
	if reports[0].To != "st-zz-busy" {
		t.Fatalf("evacuation targeted %q, want the reporting station st-zz-busy", reports[0].To)
	}
}

// TestEvacuationHoldsTheBudget evacuates a budgeted chain's station with no
// setting beyond the topology: on the ring st-a —2ms— st-b —5ms— st-d —6ms—
// st-a, only st-b (4 ms there and back) fits the chain's 9 ms budget, and
// st-d (12 ms) is the least loaded. The chain must land on st-b, and its
// migrate event must say why. A placement that ranked on load alone sent it
// to st-d.
func TestEvacuationHoldsTheBudget(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(manager.StrategyStateful))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ring := topology.NewGraph()
	ring.SetLink(topology.Link{A: "st-a", B: "st-b", Delay: 2 * time.Millisecond})
	ring.SetLink(topology.Link{A: "st-b", B: "st-d", Delay: 5 * time.Millisecond})
	ring.SetLink(topology.Link{A: "st-d", B: "st-a", Delay: 6 * time.Millisecond})
	mgr.SetTopology(ring)
	src := newScriptedAgent(t, mgr, "st-a")
	newScriptedAgent(t, mgr, "st-b").report(80)
	newScriptedAgent(t, mgr, "st-d").report(5)
	waitFor(t, 2*time.Second, func() bool {
		fresh := 0
		for _, si := range mgr.StationInfos("st-a") {
			if !si.Stale {
				fresh++
			}
		}
		return fresh == 2
	}, "st-b and st-d to report")

	if err := src.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-a", Client: "phone", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	mgr.WaitIdle()
	spec := manager.ChainSpec{Name: "chain", MaxRTTMs: 9, Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
	if err := mgr.AttachChain("phone", spec); err != nil {
		t.Fatal(err)
	}

	reports, err := mgr.EvacuateStation("st-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Err != "" || reports[0].To != "st-b" {
		t.Fatalf("reports = %+v, want the chain on st-b, the only station within its 9ms budget", reports)
	}
	evs := mgr.Journal().Events(0, trace.EventMigrate)
	const why = " why=rtt 4ms; st-d: over budget 12ms>9ms"
	if len(evs) != 1 || !strings.HasSuffix(evs[0].Detail, why) {
		t.Fatalf("migrate events = %+v, want one whose detail ends %q", evs, why)
	}
}
