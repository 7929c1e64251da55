package core

import (
	"errors"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/manager"
	"gnf/internal/packet"
	"gnf/internal/traffic"
)

func TestScheduledEnableDisableWindow(t *testing.T) {
	sys, sink := demoSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", firewallChain("fw")); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "fw", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	now := sys.Clock.Now()
	// Window opens in 100ms of wall time and closes 100ms later.
	win := manager.Window{EnableAt: now.Add(100 * time.Millisecond), DisableAt: now.Add(200 * time.Millisecond)}
	if err := sys.Manager.Schedule("phone", "fw", win); err != nil {
		t.Fatal(err)
	}
	if got := sys.Manager.Schedules(); len(got) != 1 || got[0].Chain != "fw" {
		t.Fatalf("schedules = %+v", got)
	}

	// Before the window: evaluation disables the (attached-enabled) chain.
	if n := sys.Manager.EvaluateSchedules(); n != 1 {
		t.Fatalf("pre-window transitions = %d", n)
	}
	phone := sys.ClientHost("phone")
	phone.SendUDP(packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, []byte{0, 0, 0, 0, 0, 0, 0, 1})
	time.Sleep(50 * time.Millisecond)
	if sink.Count() != 0 {
		t.Fatal("traffic flowed outside the window")
	}

	// Inside the window: chain re-enables.
	time.Sleep(120 * time.Millisecond)
	if n := sys.Manager.EvaluateSchedules(); n != 1 {
		t.Fatalf("in-window transitions = %d", n)
	}
	traffic.CBRFrom(phone, packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, 100, 5, 64, 0)
	deadline := time.After(2 * time.Second)
	for sink.Count() < 5 {
		select {
		case <-deadline:
			t.Fatalf("in-window traffic blocked: %d", sink.Count())
		case <-time.After(5 * time.Millisecond):
		}
	}

	// After the window: disabled again; repeated evaluation is idempotent.
	time.Sleep(120 * time.Millisecond)
	if n := sys.Manager.EvaluateSchedules(); n != 1 {
		t.Fatalf("post-window transitions = %d", n)
	}
	if n := sys.Manager.EvaluateSchedules(); n != 0 {
		t.Fatalf("idempotent evaluation made %d transitions", n)
	}
	before := sink.Count()
	phone.SendUDP(packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, []byte{0, 0, 0, 0, 0, 0, 1, 0})
	time.Sleep(50 * time.Millisecond)
	if sink.Count() != before {
		t.Fatal("traffic flowed after the window closed")
	}
}

func TestScheduleErrors(t *testing.T) {
	sys, _ := demoSystem(t, manager.StrategyStateful)
	if err := sys.Manager.Schedule("ghost", "fw", manager.Window{}); !errors.Is(err, manager.ErrUnknownClient) {
		t.Fatalf("unknown client: %v", err)
	}
	if err := sys.Manager.Schedule("phone", "nope", manager.Window{}); !errors.Is(err, manager.ErrUnknownChain) {
		t.Fatalf("unknown chain: %v", err)
	}
}

func TestWindowContains(t *testing.T) {
	base := time.Date(2016, 8, 22, 12, 0, 0, 0, time.UTC)
	w := manager.Window{EnableAt: base, DisableAt: base.Add(time.Hour)}
	if w.Contains(base.Add(-time.Second)) {
		t.Fatal("before window")
	}
	if !w.Contains(base) || !w.Contains(base.Add(59*time.Minute)) {
		t.Fatal("inside window")
	}
	if w.Contains(base.Add(time.Hour)) {
		t.Fatal("at close boundary")
	}
	open := manager.Window{EnableAt: base}
	if !open.Contains(base.Add(1000 * time.Hour)) {
		t.Fatal("open-ended window")
	}
}

func TestEvacuateStationFollowsClient(t *testing.T) {
	sys, _ := demoSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", manager.ChainSpec{
		Name:      "acct",
		Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "acct", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The client stays on st-a; evacuation must move the chain to the
	// least-loaded other station (st-b).
	reports, err := sys.Manager.EvacuateStation("st-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].To != "st-b" || reports[0].Err != "" {
		t.Fatalf("reports = %+v", reports)
	}
	if err := sys.WaitChainOn("st-b", "acct", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if chains := sys.Agent("st-a").Chains(); len(chains) != 0 {
		t.Fatalf("chains left on st-a: %v", chains)
	}
	// Evacuating an empty station is a no-op.
	reports, err = sys.Manager.EvacuateStation("st-a")
	if err != nil || len(reports) != 0 {
		t.Fatalf("empty evacuation: %+v, %v", reports, err)
	}
}
