package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/manager"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/topology"
)

// auditFixture brings up two stations with one attached client + chain.
func auditFixture(t *testing.T) *System {
	t.Helper()
	sys, _, err := NewVirtualSystem(Config{
		Stations: []StationConfig{
			{ID: "st-a", Cells: []CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
			{ID: "st-b", Cells: []CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.AddClient("c0", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("c0", "cell-a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachChain("c0", manager.ChainSpec{
		Name:      "ch",
		Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}},
	}); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()
	return sys
}

func kinds(vs []Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Kind]++
	}
	return out
}

func TestAuditCleanDeployment(t *testing.T) {
	sys := auditFixture(t)
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("clean deployment reported violations: %v", vs)
	}
}

func TestAuditDetectsLeakAndDuplicate(t *testing.T) {
	sys := auditFixture(t)
	// Deploy a second copy behind the manager's back: both a duplicate
	// (two stations host "ch") and a leak (st-b isn't its placement).
	if _, err := sys.Agent("st-b").Deploy(agent.DeploySpec{
		Chain: "ch", Client: "c0",
		Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}},
		Enabled:   true,
	}); err != nil {
		t.Fatal(err)
	}
	got := kinds(sys.Audit())
	if got[ViolationDuplicate] == 0 || got[ViolationLeak] == 0 {
		t.Fatalf("want duplicate-deployment and chain-leak, got %v", got)
	}
}

func TestAuditDetectsDisabledChain(t *testing.T) {
	sys := auditFixture(t)
	if err := sys.Agent("st-a").Disable("ch"); err != nil {
		t.Fatal(err)
	}
	got := kinds(sys.Audit())
	if got[ViolationDisabled] == 0 {
		t.Fatalf("want disabled-chain, got %v", got)
	}
}

func TestAuditDetectsConvergenceBreach(t *testing.T) {
	sys := auditFixture(t)
	// Move the chain away from the client without telling the topology:
	// the manager now places it on st-b while the client sits on st-a.
	if _, err := sys.Manager.MigrateChain("c0", "ch", "st-b"); err != nil {
		t.Fatal(err)
	}
	got := kinds(sys.Audit())
	if got[ViolationConvergence] == 0 {
		t.Fatalf("want convergence violation, got %v", got)
	}
}

// TestAuditAllowsSameChainNameAcrossClients: chain names are unique per
// client, not globally — two clients holding same-named chains on
// different stations is a legal, convergent deployment.
func TestAuditAllowsSameChainNameAcrossClients(t *testing.T) {
	sys := auditFixture(t) // c0 on st-a with chain "ch"
	if err := sys.AddClient("c1", packet.MAC{2, 0, 0, 0, 0, 2}, packet.IP{10, 0, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("c1", "cell-b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachChain("c1", manager.ChainSpec{
		Name:      "ch", // same name as c0's chain, different client
		Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}},
	}); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("same-named chains on two clients flagged: %v", vs)
	}
	// A station rejoin must not garbage-collect either copy: the other
	// client's placement elsewhere is not evidence this copy is stale.
	if err := sys.KillStation("st-b"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := sys.Manager.AgentHandleFor("st-b"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("manager never dropped st-b")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sys.RestartStation("st-b"); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("rejoin GC disturbed a healthy same-named chain: %v", vs)
	}
}

func TestVirtualSystemRunsOnVirtualClock(t *testing.T) {
	sys, clk, err := NewVirtualSystem(Config{
		Stations: []StationConfig{
			{ID: "st-a", Cells: []CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	before := clk.Now()
	clk.Advance(42 * time.Second)
	if got := sys.Clock.Now().Sub(before); got != 42*time.Second {
		t.Fatalf("system clock moved %v, want 42s", got)
	}
}

// TestAuditDetectsStrayDetour plants the two halves of a live handoff's
// detour behind the manager's back — what a failed or raced move would
// leave — and expects each to be reported until it is cleared.
func TestAuditDetectsStrayDetour(t *testing.T) {
	sys := auditFixture(t)
	// An exclusive chain: the shareable "ch" owns no client leg to re-point.
	if err := sys.AttachChain("c0", manager.ChainSpec{
		Name:      "nat",
		Functions: []agent.NFSpec{{Kind: "nat", Name: "nat0", Params: nf.Params{"nat_ip": "192.168.60.1"}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnsureTunnel("st-a", "st-b"); err != nil {
		t.Fatal(err)
	}
	a := sys.Agent("st-a")
	if err := a.Steer("c0", "st-b"); err != nil {
		t.Fatal(err)
	}
	if got := kinds(sys.Audit()); got[ViolationStrayDetour] != 1 || len(got) != 1 {
		t.Fatalf("want one stray-detour for the steered client, got %v", sys.Audit())
	}
	if err := a.Retarget("nat", &agent.Leg{Station: "st-b"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := kinds(sys.Audit()); got[ViolationStrayDetour] != 1 || got[ViolationLegMismatch] != 1 || len(got) != 2 {
		t.Fatalf("want a stray-detour for the steer and a leg-mismatch for the tunnelled leg, got %v", sys.Audit())
	}
	if err := a.ClearSteer("c0"); err != nil {
		t.Fatal(err)
	}
	if err := a.Retarget("nat", &agent.Leg{}, nil); err != nil {
		t.Fatal(err)
	}
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("violations after clearing the detour: %v", vs)
	}
}

// TestAuditDetectsLegMismatch plants, behind the manager's back, one of each
// leg a placement implies and a botched move would leave wrong: a local
// chain's ingress leg left on a detour's tunnel, a split chain's head
// feeding a station segment 1 is not on, segment 1 listening toward a
// station the head is not on, and an offloaded chain still pointed at the
// station its client has left — which also keeps the client's traffic from
// it (convergence).
func TestAuditDetectsLegMismatch(t *testing.T) {
	cfg := Config{Clouds: []CloudConfig{{ID: "nimbus"}}}
	for i, id := range []topology.StationID{"st-a", "st-b", "st-c"} {
		cfg.Stations = append(cfg.Stations, StationConfig{ID: id, Cells: []CellConfig{{
			ID: topology.CellID("cell-" + string(id[3:])), Center: topology.Point{X: float64(i) * 100}, Radius: 60,
		}}})
	}
	sys, _, err := NewVirtualSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	for i, c := range []struct {
		id   topology.ClientID
		cell topology.CellID
	}{{"rover", "cell-b"}, {"kiosk", "cell-c"}} {
		if err := sys.AddClient(c.id, packet.MAC{2, 0, 0, 0, 0, byte(i + 1)}, packet.IP{10, 0, 0, byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := sys.Topo.Attach(c.id, c.cell); err != nil {
			t.Fatal(err)
		}
	}
	nat := func(name string) agent.NFSpec {
		return agent.NFSpec{Kind: "nat", Name: name, Params: nf.Params{"nat_ip": "192.168.60.1"}}
	}
	// rover at st-b: a local chain, and a split one anchored on the hub
	// (st-a sorts first). kiosk at st-c: offloaded to nimbus.
	for client, specs := range map[topology.ClientID][]manager.ChainSpec{
		"rover": {
			{Name: "local", Functions: []agent.NFSpec{nat("nat0")}},
			{Name: "web", Functions: []agent.NFSpec{
				{Kind: "firewall", Name: "fw0", Affinity: manager.AffinityNearClient},
				{Kind: "counter", Name: "acct0", Affinity: manager.AffinityAggregate},
			}},
		},
		"kiosk": {{Name: "far", Functions: []agent.NFSpec{nat("nat1")}}},
	} {
		for _, spec := range specs {
			if err := sys.AttachChain(client, spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.OffloadClient("kiosk", "nimbus"); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()
	for _, pair := range [][2]topology.StationID{{"st-a", "st-c"}, {"st-b", "st-c"}} {
		if err := sys.EnsureTunnel(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("violations before anything was planted: %v", vs)
	}

	to := func(station, peer string) *agent.Leg { return &agent.Leg{Station: station, Peer: peer} }
	for _, plant := range []struct {
		what, station, chain    string
		ingress, egress         *agent.Leg // the planted legs
		homeIngress, homeEgress *agent.Leg // and the right ones
		unreached               bool       // the client's traffic misses the head too
	}{
		{what: "a leftover detour", station: "st-b", chain: "local",
			ingress: to("st-c", ""), homeIngress: to("", "")},
		{what: "a head spliced to the wrong station", station: "st-b", chain: "web",
			egress: to("st-c", "web#1"), homeEgress: to("st-a", "web#1")},
		{what: "a segment spliced to the wrong station", station: "st-a", chain: "web#1",
			ingress: to("st-c", "web"), homeIngress: to("st-b", "web")},
		{what: "an offloaded chain left behind by its client", station: "nimbus", chain: "far",
			ingress: to("st-b", ""), homeIngress: to("st-c", ""), unreached: true},
	} {
		ag := sys.Agent(topology.StationID(plant.station))
		if err := ag.Retarget(plant.chain, plant.ingress, plant.egress); err != nil {
			t.Fatalf("%s: %v", plant.what, err)
		}
		want := map[string]int{ViolationLegMismatch: 1}
		if plant.unreached {
			want[ViolationConvergence] = 1
		}
		if got := kinds(sys.Audit()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: want %v, got %v", plant.what, want, sys.Audit())
		}
		if err := ag.Retarget(plant.chain, plant.homeIngress, plant.homeEgress); err != nil {
			t.Fatalf("%s, undone: %v", plant.what, err)
		}
		if vs := sys.Audit(); len(vs) != 0 {
			t.Errorf("%s, undone: %v", plant.what, vs)
		}
	}
}

// awayFixture is a client at st-a whose exclusive NAT chain an operator has
// moved to st-b: the steering rule has st-a steer the client via st-b, onto
// the chain's ingress leg on the tunnel back. That is a converged
// deployment, with no stray detour and every leg the rule's — at the parent
// it was a convergence violation, and its steer and tunnel leg strays.
func awayFixture(t *testing.T) *System {
	t.Helper()
	cfg := Config{}
	for i, id := range []topology.StationID{"st-a", "st-b", "st-c"} {
		cfg.Stations = append(cfg.Stations, StationConfig{ID: id, Cells: []CellConfig{{
			ID: topology.CellID("cell-" + string(id[3:])), Center: topology.Point{X: float64(i) * 100}, Radius: 60,
		}}})
	}
	sys, _, err := NewVirtualSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.AddClient("c0", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("c0", "cell-a"); err != nil {
		t.Fatal(err)
	}
	// The association reaches the manager asynchronously; one that lands
	// after the move below would carry the chain back to the client.
	if err := sys.WaitClientAt("c0", "st-a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachChain("c0", manager.ChainSpec{
		Name:      "nat",
		Functions: []agent.NFSpec{{Kind: "nat", Name: "nat0", Params: nf.Params{"nat_ip": "192.168.60.1"}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Manager.MigrateChain("c0", "nat", "st-b"); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("a head served over the tunnel reported violations: %v", vs)
	}
	return sys
}

// TestAuditConvergenceIsTrafficReachingTheHead: a head away from its client
// converges while the client's station steers it there; take the steer out
// and the client's traffic passes the chain by.
func TestAuditConvergenceIsTrafficReachingTheHead(t *testing.T) {
	sys := awayFixture(t)
	a := sys.Agent("st-a")
	if err := a.ClearSteer("c0"); err != nil {
		t.Fatal(err)
	}
	if got := kinds(sys.Audit()); !reflect.DeepEqual(got, map[string]int{ViolationConvergence: 1}) {
		t.Fatalf("want one convergence violation for the unsteered client, got %v", sys.Audit())
	}
	if err := a.Steer("c0", "st-b"); err != nil {
		t.Fatal(err)
	}
	if vs := sys.Audit(); len(vs) != 0 {
		t.Fatalf("violations with the steer back: %v", vs)
	}
}

// TestAuditStrayDetourIsASteerTheRuleWouldNotProduce: the rule's own steer
// is no stray; one toward a station no head runs on is — and takes the
// client's traffic away from its head as well.
func TestAuditStrayDetourIsASteerTheRuleWouldNotProduce(t *testing.T) {
	sys := awayFixture(t)
	if err := sys.EnsureTunnel("st-a", "st-c"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Agent("st-a").Steer("c0", "st-c"); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{ViolationStrayDetour: 1, ViolationConvergence: 1}
	if got := kinds(sys.Audit()); !reflect.DeepEqual(got, want) {
		t.Fatalf("want %v for a steer toward st-c, got %v", want, sys.Audit())
	}
}

// TestAuditLegMismatchFollowsTheRule: the away head's tunnel leg is the
// rule's; sent home to its edge it is a mismatch, and the client's traffic
// no longer reaches it.
func TestAuditLegMismatchFollowsTheRule(t *testing.T) {
	sys := awayFixture(t)
	if err := sys.Agent("st-b").Retarget("nat", &agent.Leg{}, nil); err != nil {
		t.Fatal(err)
	}
	vs := sys.Audit()
	want := map[string]int{ViolationLegMismatch: 1, ViolationConvergence: 1}
	if got := kinds(vs); !reflect.DeepEqual(got, want) {
		t.Fatalf("want %v for the head's leg sent home, got %v", want, vs)
	}
	for _, v := range vs {
		if v.Kind == ViolationLegMismatch && !strings.Contains(v.Detail, "imply {Station:st-a Peer:}") {
			t.Errorf("leg-mismatch does not name the rule's leg: %s", v.Detail)
		}
	}
}
