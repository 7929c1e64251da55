package agent_test

import (
	"errors"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/topology"
)

// twoSites wires an edge agent and a cloud agent whose switches share a
// tunnel veth (service ports), plus a client host behind the edge and a
// server host behind the cloud-side backhaul... kept minimal: both
// stations hang off the same "backbone" switch through their uplinks.
type twoSites struct {
	edge, cloud *agent.Agent
	client      *netem.Host
	server      *netem.Host
}

func newTwoSites(t *testing.T) *twoSites {
	t.Helper()
	clk := clock.NewAutoVirtual()
	repo := container.NewRepository(clk, 0, 0)
	pushImages(repo)

	backbone := netem.NewSwitch("bb")

	mk := func(name string, cloud bool) (*agent.Agent, *netem.Switch) {
		rt := container.NewRuntime(name, clk, repo)
		sw := netem.NewSwitch(name)
		up, core := netem.NewVethPair(name+"-up", name+"-core", netem.WithClock(clk))
		sw.Attach(0, up)
		switch name {
		case "edge":
			backbone.Attach(1, core)
		default:
			backbone.Attach(2, core)
		}
		var opts []agent.Option
		if cloud {
			opts = append(opts, agent.WithCloud())
		}
		return agent.New(topology.StationID(name), clk, rt, sw, 0, opts...), sw
	}
	edgeAg, edgeSw := mk("edge", false)
	cloudAg, cloudSw := mk("cloud", true)

	// Tunnel between the two switches, attached as service ports.
	te, tc := netem.NewVethPair("edge-tun", "cloud-tun", netem.WithClock(clk))
	edgeSw.AttachService(50, te)
	cloudSw.AttachService(50, tc)
	edgeAg.RegisterTunnel("cloud", 50)
	cloudAg.RegisterTunnel("edge", 50)

	// Client on edge port 1; server on backbone port 3.
	cl, clSw := netem.NewVethPair("cl", "ap", netem.WithClock(clk))
	edgeSw.Attach(1, clSw)
	client := netem.NewHost(clientMAC, clientIP, cl)
	srvSide, srvCore := netem.NewVethPair("srv", "srv-core", netem.WithClock(clk))
	backbone.Attach(3, srvCore)
	server := netem.NewHost(serverMAC, serverIP, srvSide)
	client.Learn(serverIP, serverMAC)
	server.Learn(clientIP, clientMAC)

	edgeAg.AttachClient("phone", clientMAC, clientIP, 1)
	return &twoSites{edge: edgeAg, cloud: cloudAg, client: client, server: server}
}

// timeoutC returns a channel firing after the per-assertion deadline.
func timeoutC(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(2 * time.Second)
}

func TestTunnelRegistry(t *testing.T) {
	ts := newTwoSites(t)
	if p, ok := ts.edge.TunnelTo("cloud"); !ok || p != 50 {
		t.Fatalf("edge tunnel = %v %v", p, ok)
	}
	if _, ok := ts.edge.TunnelTo("mars"); ok {
		t.Fatal("unknown tunnel resolved")
	}
	if got := ts.edge.Tunnels(); len(got) != 1 || got[0] != "cloud" {
		t.Fatalf("Tunnels = %v", got)
	}
	if !ts.cloud.Cloud() || ts.edge.Cloud() {
		t.Fatal("cloud flags wrong")
	}
}

func TestRemoteDeployAndDetourCarryTraffic(t *testing.T) {
	ts := newTwoSites(t)

	// Remote chain on the cloud, fed by the tunnel from "edge".
	_, err := ts.cloud.Deploy(agent.DeploySpec{
		Chain:     "fw",
		Client:    "phone",
		ClientMAC: clientMAC,
		ClientIP:  clientIP,
		Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw0"}},
		Enabled:   true,
		Ingress:   agent.Leg{Station: "edge"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.edge.Steer("phone", "cloud"); err != nil {
		t.Fatal(err)
	}
	if !ts.edge.Steered("phone") {
		t.Fatal("not steered")
	}

	got := make(chan []byte, 16)
	ts.server.HandleUDP(7000, func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- append([]byte(nil), payload...)
		return nil
	})
	if err := ts.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if string(b) != "hi" {
			t.Fatalf("payload = %q", b)
		}
	case <-timeoutC(t):
		t.Fatal("packet never crossed the detour")
	}
	// The frame really went through the remote chain.
	fn, err := ts.cloud.ChainFunction("fw")
	if err != nil {
		t.Fatal(err)
	}
	if fn.NFStats()["fw0.accepted"] == 0 {
		t.Fatalf("remote chain saw nothing: %v", fn.NFStats())
	}

	// Return traffic rides the tunnel back through the chain.
	pong := make(chan struct{}, 1)
	ts.client.HandleUDP(6000, func(src, dst packet.Endpoint, payload []byte) []byte {
		pong <- struct{}{}
		return nil
	})
	if err := ts.server.SendUDP(packet.Endpoint{Addr: clientIP, Port: 6000}, 7000, []byte("yo")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pong:
	case <-timeoutC(t):
		t.Fatal("return packet never arrived")
	}
}

func TestRemoteDeployWithoutTunnelFails(t *testing.T) {
	ts := newTwoSites(t)
	_, err := ts.cloud.Deploy(agent.DeploySpec{
		Chain:     "fw",
		Client:    "phone",
		ClientMAC: clientMAC,
		Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw0"}},
		Ingress:   agent.Leg{Station: "atlantis"},
	})
	if !errors.Is(err, agent.ErrNoTunnel) {
		t.Fatalf("err = %v", err)
	}
	// The failed deploy must leave nothing behind.
	if got := ts.cloud.Chains(); len(got) != 0 {
		t.Fatalf("chains = %v", got)
	}
}

func TestSteerErrors(t *testing.T) {
	ts := newTwoSites(t)
	if err := ts.edge.Steer("ghost", "cloud"); !errors.Is(err, agent.ErrUnknownClient) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.edge.Steer("phone", "atlantis"); !errors.Is(err, agent.ErrNoTunnel) {
		t.Fatalf("err = %v", err)
	}
	// ClearSteer is idempotent.
	if err := ts.edge.ClearSteer("phone"); err != nil {
		t.Fatal(err)
	}
}

func TestSteerReplacedAtomicallyAndClearedOnDetach(t *testing.T) {
	ts := newTwoSites(t)
	if err := ts.edge.Steer("phone", "cloud"); err != nil {
		t.Fatal(err)
	}
	// Re-steering replaces rather than stacking rules.
	if err := ts.edge.Steer("phone", "cloud"); err != nil {
		t.Fatal(err)
	}
	rules := ts.edge.Switch().Rules()
	n := 0
	for range rules {
		n++
	}
	if n != 1 {
		t.Fatalf("%d rules after double steer", n)
	}
	ts.edge.DetachClient("phone")
	if ts.edge.Steered("phone") {
		t.Fatal("steer survived detach")
	}
	if got := len(ts.edge.Switch().Rules()); got != 0 {
		t.Fatalf("%d rules after detach", got)
	}
}

func TestRetargetMovesTunnelRules(t *testing.T) {
	ts := newTwoSites(t)
	// A second tunnel pretends to lead to station "edge2".
	e2, _ := netem.NewVethPair("t2a", "t2b", netem.WithClock(clock.NewAutoVirtual()))
	ts.cloud.Switch().AttachService(60, e2)
	ts.cloud.RegisterTunnel("edge2", 60)

	if _, err := ts.cloud.Deploy(agent.DeploySpec{
		Chain:     "fw",
		Client:    "phone",
		ClientMAC: clientMAC,
		Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw0"}},
		Enabled:   true,
		Ingress:   agent.Leg{Station: "edge"},
	}); err != nil {
		t.Fatal(err)
	}
	before := len(ts.cloud.Switch().Rules())
	if err := retarget(ts.cloud, "fw", "edge2"); err != nil {
		t.Fatal(err)
	}
	if got := len(ts.cloud.Switch().Rules()); got != before {
		t.Fatalf("rules %d -> %d; retarget must replace, not add", before, got)
	}
	// Errors: unknown chain, local chain, unknown tunnel.
	if err := retarget(ts.cloud, "nope", "edge"); !errors.Is(err, agent.ErrUnknownChain) {
		t.Fatalf("err = %v", err)
	}
	if err := retarget(ts.cloud, "fw", "atlantis"); !errors.Is(err, agent.ErrNoTunnel) {
		t.Fatalf("err = %v", err)
	}
	ts.edge.AttachClient("phone", clientMAC, clientIP, 1)
	if _, err := ts.edge.Deploy(agent.DeploySpec{
		Chain:     "local",
		Client:    "phone",
		Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw0"}},
		Enabled:   true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := retarget(ts.edge, "local", "cloud"); !errors.Is(err, agent.ErrPooledLegs) {
		t.Fatalf("err = %v", err)
	}
}
