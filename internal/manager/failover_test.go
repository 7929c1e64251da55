package manager_test

import (
	"encoding/json"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/metrics"
	"gnf/internal/packet"
	"gnf/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.After(d)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("timeout: " + msg)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

var fwChain = manager.ChainSpec{
	Name:      "fw",
	Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw0"}},
}

func TestFailoverRecoversChainsOnConnectionDrop(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithFailover(0))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	agA, linkA := fakeStation(t, mgr, "st-a")
	agB, _ := fakeStation(t, mgr, "st-b")
	agC, _ := fakeStation(t, mgr, "st-c")
	waitFor(t, 2*time.Second, func() bool { return len(mgr.Agents()) == 3 }, "3 agents")

	mgr.RegisterClient("phone")
	agA.AttachClient("phone", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}, 1)
	waitFor(t, 2*time.Second, func() bool {
		st, ok := mgr.ClientStation("phone")
		return ok && st == "st-a"
	}, "client at st-a")
	if err := mgr.AttachChain("phone", fwChain); err != nil {
		t.Fatal(err)
	}
	if got := agA.Chains(); len(got) != 1 {
		t.Fatalf("st-a chains = %v", got)
	}

	// Station st-a dies: its agent connection drops.
	linkA.Close()
	waitFor(t, 2*time.Second, func() bool { return len(mgr.Failovers()) == 1 }, "failover report")
	mgr.WaitIdle()

	rep := mgr.Failovers()[0]
	if rep.Err != "" {
		t.Fatalf("failover error: %s", rep.Err)
	}
	if rep.Station != "st-a" || rep.Client != "phone" || rep.Chain != "fw" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.To != "st-b" && rep.To != "st-c" {
		t.Fatalf("revived on %q", rep.To)
	}
	revived := agB
	if rep.To == "st-c" {
		revived = agC
	}
	if got := revived.Chains(); len(got) != 1 || got[0] != "fw" {
		t.Fatalf("chains on %s = %v", rep.To, got)
	}
	if failed := mgr.FailedStations(); len(failed) != 1 || failed[0] != "st-a" {
		t.Fatalf("failed stations = %v", failed)
	}
}

func TestFailoverPrefersClientStation(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithFailover(0))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	agA, _ := fakeStation(t, mgr, "st-a")
	_, linkB := fakeStation(t, mgr, "st-b")
	fakeStation(t, mgr, "st-c")
	waitFor(t, 2*time.Second, func() bool { return len(mgr.Agents()) == 3 }, "3 agents")

	mgr.RegisterClient("phone")
	agA.AttachClient("phone", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}, 1)
	waitFor(t, 2*time.Second, func() bool {
		_, ok := mgr.ClientStation("phone")
		return ok
	}, "client attached")
	if err := mgr.AttachChain("phone", fwChain); err != nil {
		t.Fatal(err)
	}
	// Park the chain away from the client, then kill its host.
	if _, err := mgr.MigrateChain("phone", "fw", "st-b"); err != nil {
		t.Fatal(err)
	}
	linkB.Close()
	waitFor(t, 2*time.Second, func() bool { return len(mgr.Failovers()) == 1 }, "failover report")
	mgr.WaitIdle()

	rep := mgr.Failovers()[0]
	if rep.Err != "" || rep.To != "st-a" {
		t.Fatalf("expected revival on the client's station st-a, got %+v", rep)
	}
	if got := agA.Chains(); len(got) != 1 || got[0] != "fw" {
		t.Fatalf("st-a chains = %v", got)
	}
}

func TestFailoverSilentStationByHeartbeatTimeout(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithFailover(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	fakeStation(t, mgr, "st-b")

	// A hand-rolled "ghost" station: registers, accepts a deploy, sends a
	// single heartbeat, then goes silent without closing the connection.
	peer, err := wire.Dial(mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	peer.Handle(agent.MethodDeploy, func(json.RawMessage) (any, error) {
		return &agent.DeployResult{Chain: "fw"}, nil
	})
	go peer.Run()
	defer peer.Close()
	if err := peer.Call(agent.MethodRegister, agent.RegisterSpec{Station: "ghost"}, nil); err != nil {
		t.Fatal(err)
	}
	peer.Notify(agent.MethodClientEvent, agent.ClientEvent{Station: "ghost", Client: "phone", Connected: true})
	peer.Notify(agent.MethodReport, agent.Report{Station: "ghost", Usage: metrics.ResourceUsage{CPUPercent: 1}})

	mgr.RegisterClient("phone")
	waitFor(t, 2*time.Second, func() bool {
		st, ok := mgr.ClientStation("phone")
		return ok && st == "ghost"
	}, "client at ghost")
	mgr.WaitIdle()
	if err := mgr.AttachChain("phone", fwChain); err != nil {
		t.Fatal(err)
	}

	// Nothing is failed while the heartbeat is fresh.
	if reps := mgr.CheckFailures(); len(reps) != 0 {
		t.Fatalf("premature failover: %+v", reps)
	}
	time.Sleep(120 * time.Millisecond)
	reps := mgr.CheckFailures()
	if len(reps) != 1 {
		t.Fatalf("reports = %+v", reps)
	}
	if reps[0].To != "st-b" || reps[0].Err != "" {
		t.Fatalf("report = %+v", reps[0])
	}
	if failed := mgr.FailedStations(); len(failed) != 1 || failed[0] != "ghost" {
		t.Fatalf("failed = %v", failed)
	}
}

func TestFailoverNoSurvivorReportsError(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithFailover(0))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	agA, linkA := fakeStation(t, mgr, "st-a")
	waitFor(t, 2*time.Second, func() bool { return len(mgr.Agents()) == 1 }, "agent up")

	mgr.RegisterClient("phone")
	agA.AttachClient("phone", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}, 1)
	waitFor(t, 2*time.Second, func() bool {
		_, ok := mgr.ClientStation("phone")
		return ok
	}, "client attached")
	if err := mgr.AttachChain("phone", fwChain); err != nil {
		t.Fatal(err)
	}
	linkA.Close()
	waitFor(t, 2*time.Second, func() bool { return len(mgr.Failovers()) == 1 }, "failover attempted")
	mgr.WaitIdle()
	if rep := mgr.Failovers()[0]; rep.Err == "" {
		t.Fatalf("expected error with no survivors, got %+v", rep)
	}
}

func TestFailedStationClearsOnRejoin(t *testing.T) {
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithFailover(0))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	agA, linkA := fakeStation(t, mgr, "st-a")
	fakeStation(t, mgr, "st-b")
	waitFor(t, 2*time.Second, func() bool { return len(mgr.Agents()) == 2 }, "agents up")

	mgr.RegisterClient("phone")
	agA.AttachClient("phone", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}, 1)
	waitFor(t, 2*time.Second, func() bool {
		_, ok := mgr.ClientStation("phone")
		return ok
	}, "client attached")
	if err := mgr.AttachChain("phone", fwChain); err != nil {
		t.Fatal(err)
	}
	linkA.Close()
	waitFor(t, 2*time.Second, func() bool { return len(mgr.FailedStations()) == 1 }, "declared failed")
	mgr.WaitIdle()

	// The station comes back: a fresh link re-registers the same name.
	if _, err := agent.Connect(agA, mgr.Addr(), 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(mgr.FailedStations()) == 0 }, "failure cleared")
}
