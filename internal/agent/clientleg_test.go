package agent_test

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"gnf/internal/agent"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// The rule sets of a whole chain whose client is on a local access port and
// of one whose client is behind a tunnel, written out as the installers
// before the rule function programmed them (clientSteeringRules,
// installRemoteSteering). Priority 100 is steerPriority; port 0 is every
// test station's uplink.
func localLegRules(clientPort, inPort, outPort netem.PortID) []netem.Rule {
	up, ip := netem.PortID(0), clientIP
	return []netem.Rule{
		{Priority: 100, Match: netem.Match{InPort: &clientPort}, Action: netem.ActionRedirect, OutPort: inPort},
		{Priority: 100, Match: netem.Match{InPort: &up, DstIP: &ip}, Action: netem.ActionRedirect, OutPort: outPort},
	}
}

func tunnelLegRules(tunnel, inPort, outPort netem.PortID) []netem.Rule {
	up, mac := netem.PortID(0), clientMAC
	return []netem.Rule{
		{Priority: 100, Match: netem.Match{InPort: &tunnel, SrcMAC: &mac}, Action: netem.ActionRedirect, OutPort: inPort},
		{Priority: 100, Match: netem.Match{InPort: &up, DstMAC: &mac}, Action: netem.ActionRedirect, OutPort: outPort},
		{Priority: 100, Match: netem.Match{InPort: &inPort}, Action: netem.ActionRedirect, OutPort: tunnel},
	}
}

// installedRules lists a switch's rules in installation order with the IDs
// blanked.
func installedRules(sw *netem.Switch) []netem.Rule {
	rules := sw.Rules()
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	for i := range rules {
		rules[i].ID = 0
	}
	return rules
}

func wantRules(t *testing.T, sw *netem.Switch, step string, want []netem.Rule) {
	t.Helper()
	if got, want := ruleKeys(installedRules(sw)), ruleKeys(want); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rules = %q, want %q", step, got, want)
	}
}

// natSpec is an exclusive (unshareable) local chain: the agent's first
// deployment gets service ports 1000 (ingress) and 1001 (egress).
func natSpec(chain string) agent.DeploySpec {
	return agent.DeploySpec{
		Chain:   chain,
		Client:  "phone",
		Enabled: true,
		Functions: []agent.NFSpec{
			{Kind: "nat", Name: "nat0", Params: nf.Params{"nat_ip": "192.168.77.1"}},
		},
	}
}

// viaOf reports the station a chain's ingress leg is tunnelled to.
func viaOf(t *testing.T, ag *agent.Agent, chain string) string {
	t.Helper()
	for _, cs := range ag.Report().Chains {
		if cs.Chain == chain {
			return cs.Ingress.Station
		}
	}
	t.Fatalf("chain %s not reported", chain)
	return ""
}

// retarget points a chain's ingress leg at the tunnel to via ("" = home, at
// the client's access port).
func retarget(ag *agent.Agent, chain, via string) error {
	return ag.Retarget(chain, &agent.Leg{Station: via}, nil)
}

func TestClientLegRulesMatchTheFormerInstallers(t *testing.T) {
	ts := newTwoSites(t)
	// Local: the client sits on edge port 1.
	if _, err := ts.edge.Deploy(natSpec("local")); err != nil {
		t.Fatal(err)
	}
	wantRules(t, ts.edge.Switch(), "local deploy", localLegRules(1, 1000, 1001))
	// Offloaded: the cloud hosts the chain behind the tunnel (port 50).
	remote := natSpec("remote")
	remote.ClientMAC, remote.ClientIP = clientMAC, clientIP
	remote.Ingress = agent.Leg{Station: "edge"}
	if _, err := ts.cloud.Deploy(remote); err != nil {
		t.Fatal(err)
	}
	wantRules(t, ts.cloud.Switch(), "remote deploy", tunnelLegRules(50, 1000, 1001))
}

func TestRetargetMovesALocalClientLeg(t *testing.T) {
	ts := newTwoSites(t)
	sw := ts.edge.Switch()
	// A second tunnel out of the edge, toward a station "edge2".
	t2, _ := netem.NewVethPair("e2a", "e2b")
	sw.AttachService(60, t2)
	ts.edge.RegisterTunnel("edge2", 60)
	if _, err := ts.edge.Deploy(natSpec("nat")); err != nil {
		t.Fatal(err)
	}

	for _, step := range []struct {
		via  string
		want []netem.Rule
	}{
		{"cloud", tunnelLegRules(50, 1000, 1001)}, // access port -> tunnel
		{"edge2", tunnelLegRules(60, 1000, 1001)}, // tunnel -> other tunnel
		{"", localLegRules(1, 1000, 1001)},        // tunnel -> access port
		{"edge2", tunnelLegRules(60, 1000, 1001)},
	} {
		if err := retarget(ts.edge, "nat", "atlantis"); !errors.Is(err, agent.ErrNoTunnel) {
			t.Fatalf("retarget at an unknown tunnel: err = %v", err)
		}
		if err := retarget(ts.edge, "nat", step.via); err != nil {
			t.Fatalf("retarget to %q: %v", step.via, err)
		}
		wantRules(t, sw, "retarget to "+step.via, step.want)
		if got := viaOf(t, ts.edge, "nat"); got != step.via {
			t.Fatalf("reported via = %q, want %q", got, step.via)
		}
	}

	// The leg follows the client: gone with it when pointed home while it
	// is away, back on whatever port it returns on — and a client coming
	// back to a chain still pointed down a tunnel gets it back at once.
	ts.edge.DetachClient("phone")
	wantRules(t, sw, "client left", tunnelLegRules(60, 1000, 1001))
	if err := retarget(ts.edge, "nat", ""); err != nil {
		t.Fatal(err)
	}
	wantRules(t, sw, "pointed home, client away", nil)
	if err := retarget(ts.edge, "nat", "cloud"); err != nil {
		t.Fatalf("the deployment forgot its client's addressing: %v", err)
	}
	ts.edge.AttachClient("phone", clientMAC, clientIP, 7)
	wantRules(t, sw, "client back", localLegRules(7, 1000, 1001))
	if got := viaOf(t, ts.edge, "nat"); got != "" {
		t.Fatalf("via = %q after the client came back", got)
	}

	if err := ts.edge.Remove("nat"); err != nil {
		t.Fatal(err)
	}
	wantRules(t, sw, "removed", nil)
}

func TestRetargetRefusesLegsItDoesNotOwn(t *testing.T) {
	ts := newTwoSites(t)
	// A shareable chain attaches to the pool, which steers all its sharers.
	if _, err := ts.edge.Deploy(firewallSpec("shared", "")); err != nil {
		t.Fatal(err)
	}
	before := installedRules(ts.edge.Switch())
	for _, via := range []string{"cloud", ""} {
		if err := retarget(ts.edge, "shared", via); !errors.Is(err, agent.ErrPooledLegs) {
			t.Fatalf("retarget of a shared attachment to %q: err = %v", via, err)
		}
	}
	wantRules(t, ts.edge.Switch(), "refused retarget", before)
	// A local chain that never saw its client has nothing to match on a
	// tunnel.
	ts.edge.DetachClient("phone")
	if _, err := ts.edge.Deploy(natSpec("blind")); err != nil {
		t.Fatal(err)
	}
	if err := retarget(ts.edge, "blind", "cloud"); !errors.Is(err, agent.ErrUnknownClient) {
		t.Fatalf("retarget without client addressing: err = %v", err)
	}
}

// TestDetourServesARoamedClientThroughItsOldStation drives the two calls a
// live handoff borrows from offload against real traffic: the client has
// moved to the other station, its chain has not, and both directions must
// still cross the chain.
func TestDetourServesARoamedClientThroughItsOldStation(t *testing.T) {
	ts := newTwoSites(t)
	// The DNS cache keeps the chain out of the shared pool.
	spec := firewallSpec("fw", "")
	spec.Functions = append(spec.Functions, agent.NFSpec{Kind: "dnscache", Name: "dns0"})
	if _, err := ts.edge.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	// The roam: off edge port 1, onto port 1 of the other station.
	ts.edge.DetachClient("phone")
	ts.edge.Switch().Detach(1)
	cl, ap := netem.NewVethPair("cl2", "ap2")
	t.Cleanup(func() { cl.Close() })
	ts.cloud.Switch().Attach(1, ap)
	ts.client.Rebind(cl)
	ts.cloud.AttachClient("phone", clientMAC, clientIP, 1)

	if err := retarget(ts.edge, "fw", "cloud"); err != nil {
		t.Fatal(err)
	}
	if err := ts.cloud.Steer("phone", "edge"); err != nil {
		t.Fatal(err)
	}

	accepted := func() uint64 {
		fn, err := ts.edge.ChainFunction("fw")
		if err != nil {
			t.Fatal(err)
		}
		return fn.NFStats()["fw0.accepted"]
	}
	ping, pong := make(chan struct{}, 1), make(chan struct{}, 1)
	ts.server.HandleUDP(7000, func(_, _ packet.Endpoint, _ []byte) []byte {
		ping <- struct{}{}
		return nil
	})
	ts.client.HandleUDP(6000, func(_, _ packet.Endpoint, _ []byte) []byte {
		pong <- struct{}{}
		return nil
	})
	if err := ts.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ping:
	case <-timeoutC(t):
		t.Fatal("frame never crossed the detour")
	}
	if got := accepted(); got != 1 {
		t.Fatalf("the old station's chain accepted %d frames, want the client's 1", got)
	}
	if err := ts.server.SendUDP(packet.Endpoint{Addr: clientIP, Port: 6000}, 7000, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pong:
	case <-timeoutC(t):
		t.Fatal("the reply never came back through the tunnel")
	}
	if got := accepted(); got != 2 {
		t.Fatalf("the old station's chain accepted %d frames, want both directions", got)
	}

	// Clearing both halves leaves the old station with no rules for the
	// absent client and the new one with none at all.
	if err := ts.cloud.ClearSteer("phone"); err != nil {
		t.Fatal(err)
	}
	if err := retarget(ts.edge, "fw", ""); err != nil {
		t.Fatal(err)
	}
	wantRules(t, ts.edge.Switch(), "detour cleared (source)", nil)
	wantRules(t, ts.cloud.Switch(), "detour cleared (client's station)", nil)
	if got := ts.cloud.Report().Detours; len(got) != 0 {
		t.Fatalf("detours still reported: %v", got)
	}
}
