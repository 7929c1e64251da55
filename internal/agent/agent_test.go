package agent_test

import (
	"errors"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"

	_ "gnf/internal/nf/builtin"
)

var (
	clientMAC = packet.MAC{2, 0, 0, 0, 0, 1}
	serverMAC = packet.MAC{2, 0, 0, 0, 0, 2}
	clientIP  = packet.IP{10, 0, 0, 1}
	serverIP  = packet.IP{10, 99, 0, 1}
)

// station is a self-contained single-station testbed: a client host on
// port 1, the uplink on port 0 leading to a server host.
type station struct {
	ag     *agent.Agent
	client *netem.Host
	server *netem.Host
	clk    *clock.Virtual
	repo   *container.Repository
}

func pushImages(repo *container.Repository) {
	for _, kind := range []string{"firewall", "httpfilter", "dnslb", "ratelimit", "nat", "dnscache", "counter"} {
		repo.Push(container.Image{Name: agent.ImageForKind(kind), SizeBytes: 4 << 20, MemoryBytes: 6 << 20, CPUPercent: 2})
	}
}

func newStation(t *testing.T) *station {
	t.Helper()
	clk := clock.NewAutoVirtual()
	repo := container.NewRepository(clk, 0, 0)
	pushImages(repo)
	rt := container.NewRuntime("st-1", clk, repo)
	sw := netem.NewSwitch("st-1")

	// Uplink (port 0) to the server host.
	up, upCore := netem.NewVethPair("up", "core")
	sw.Attach(0, up)
	server := netem.NewHost(serverMAC, serverIP, upCore)

	// Client on port 1.
	cl, clSw := netem.NewVethPair("cl", "ap")
	sw.Attach(1, clSw)
	client := netem.NewHost(clientMAC, clientIP, cl)
	client.Learn(serverIP, serverMAC)
	server.Learn(clientIP, clientMAC)

	ag := agent.New("st-1", clk, rt, sw, 0)
	ag.AttachClient("phone", clientMAC, clientIP, 1)
	t.Cleanup(func() { up.Close(); cl.Close() })
	return &station{ag: ag, client: client, server: server, clk: clk, repo: repo}
}

func waitCount(t *testing.T, deadline time.Duration, probe func() bool) {
	t.Helper()
	limit := time.After(deadline)
	for {
		if probe() {
			return
		}
		select {
		case <-limit:
			t.Fatal("condition never reached")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func firewallSpec(chain, rules string) agent.DeploySpec {
	return agent.DeploySpec{
		Chain:  chain,
		Client: "phone",
		Functions: []agent.NFSpec{{
			Kind: "firewall", Name: "fw0",
			Params: nf.Params{"policy": "accept", "rules": rules},
		}},
		Enabled: true,
	}
}

func TestDeploySteersTrafficThroughChain(t *testing.T) {
	st := newStation(t)
	res, err := st.ag.Deploy(firewallSpec("ch1", "drop out udp any any any 9999"))
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if len(res.Containers) != 1 {
		t.Fatalf("containers = %v", res.Containers)
	}

	got := make(chan uint16, 16)
	st.server.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- dst.Port
		return nil
	})
	// Allowed traffic flows through the chain to the server.
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 53}, 1234, []byte("ok"))
	select {
	case p := <-got:
		if p != 53 {
			t.Fatalf("unexpected port %d", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("allowed traffic never arrived")
	}
	// Firewalled traffic is dropped inside the chain.
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 9999}, 1234, []byte("blocked"))
	select {
	case p := <-got:
		t.Fatalf("blocked traffic arrived on port %d", p)
	case <-time.After(100 * time.Millisecond):
	}

	ch, err := st.ag.ChainFunction("ch1")
	if err != nil {
		t.Fatal(err)
	}
	stats := ch.NFStats()
	if stats["fw0.dropped"] != 1 || stats["fw0.accepted"] == 0 {
		t.Fatalf("firewall stats = %v", stats)
	}
}

func TestReturnTrafficTraversesChain(t *testing.T) {
	st := newStation(t)
	if _, err := st.ag.Deploy(firewallSpec("ch1", "")); err != nil {
		t.Fatal(err)
	}
	traffic := make(chan []byte, 16)
	st.client.HandleUDP(5555, func(src, dst packet.Endpoint, payload []byte) []byte {
		traffic <- payload
		return nil
	})
	// Server-originated traffic to the client must pass the chain egress.
	st.server.SendUDP(packet.Endpoint{Addr: clientIP, Port: 5555}, 53, []byte("inbound"))
	select {
	case p := <-traffic:
		if string(p) != "inbound" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("inbound traffic never arrived")
	}
	ch, _ := st.ag.ChainFunction("ch1")
	if ch.NFStats()["fw0.accepted"] == 0 {
		t.Fatal("inbound traffic bypassed the chain")
	}
}

func TestRemoveRestoresDirectPath(t *testing.T) {
	st := newStation(t)
	if _, err := st.ag.Deploy(firewallSpec("ch1", "drop out udp")); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 4)
	st.server.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- struct{}{}
		return nil
	})
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 1}, 2, []byte("x"))
	select {
	case <-got:
		t.Fatal("drop-all chain leaked")
	case <-time.After(100 * time.Millisecond):
	}
	if err := st.ag.Remove("ch1"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 1}, 2, []byte("x"))
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("direct path not restored after Remove")
	}
	if err := st.ag.Remove("ch1"); !errors.Is(err, agent.ErrUnknownChain) {
		t.Fatalf("double remove: %v", err)
	}
	// The shareable chain's instance idles in the pool's grace window after
	// the last reference leaves; once grace lapses the reaper reclaims it.
	st.clk.Advance(time.Minute)
	st.ag.ReapPools()
	if len(st.ag.Runtime().List()) != 0 {
		t.Fatal("containers leaked after Remove + reap")
	}
}

func TestDeployErrors(t *testing.T) {
	st := newStation(t)
	if _, err := st.ag.Deploy(firewallSpec("dup", "")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ag.Deploy(firewallSpec("dup", "")); !errors.Is(err, agent.ErrChainExists) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := st.ag.Deploy(agent.DeploySpec{
		Chain: "bad", Client: "phone",
		Functions: []agent.NFSpec{{Kind: "warp-drive", Name: "x"}},
	}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Unknown client: deploy succeeds but installs no steering rules.
	res, err := st.ag.Deploy(agent.DeploySpec{
		Chain: "nobody", Client: "ghost",
		Functions: []agent.NFSpec{{Kind: "firewall", Name: "f"}},
		Enabled:   true,
	})
	if err != nil || res == nil {
		t.Fatalf("deploy for unknown client: %v", err)
	}
}

func TestDisableCausesDowntimeEnableRestores(t *testing.T) {
	st := newStation(t)
	if _, err := st.ag.Deploy(firewallSpec("ch1", "")); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 16)
	st.server.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		got <- struct{}{}
		return nil
	})
	send := func() { st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 1}, 2, []byte("x")) }
	send()
	waitCount(t, 2*time.Second, func() bool {
		select {
		case <-got:
			return true
		default:
			return false
		}
	})
	if err := st.ag.Disable("ch1"); err != nil {
		t.Fatal(err)
	}
	send()
	select {
	case <-got:
		t.Fatal("disabled chain forwarded")
	case <-time.After(100 * time.Millisecond):
	}
	if err := st.ag.Enable("ch1"); err != nil {
		t.Fatal(err)
	}
	send()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("enabled chain did not forward")
	}
	if err := st.ag.Enable("ghost"); !errors.Is(err, agent.ErrUnknownChain) {
		t.Fatalf("enable unknown: %v", err)
	}
}

func TestCheckpointRestoreAcrossAgents(t *testing.T) {
	stA := newStation(t)
	stB := newStation(t)
	spec := agent.DeploySpec{
		Chain:  "nat-ch",
		Client: "phone",
		Functions: []agent.NFSpec{{
			Kind: "nat", Name: "n0",
			Params: nf.Params{"nat_ip": "192.168.50.1", "ports": "40000-41000"},
		}},
		Enabled: true,
	}
	if _, err := stA.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	// Create NAT state by pushing a frame through the chain host manually:
	// client -> server via the deployed chain.
	probe := make(chan struct{}, 1)
	stA.server.HandleAnyUDP(func(src, dst packet.Endpoint, payload []byte) []byte {
		probe <- struct{}{}
		return nil
	})
	stA.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 53}, 7000, []byte("q"))
	select {
	case <-probe:
	case <-time.After(2 * time.Second):
		t.Fatal("nat chain never forwarded")
	}

	state, err := stA.ag.Checkpoint("nat-ch")
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(state) == 0 {
		t.Fatal("empty checkpoint")
	}
	if _, err := stB.ag.Deploy(spec); err != nil {
		t.Fatal(err)
	}
	if err := stB.ag.Restore("nat-ch", state); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	chB, _ := stB.ag.ChainFunction("nat-ch")
	if chB.NFStats()["n0.mappings"] != 1 {
		t.Fatalf("restored stats = %v", chB.NFStats())
	}
	if _, err := stA.ag.Checkpoint("ghost"); !errors.Is(err, agent.ErrUnknownChain) {
		t.Fatalf("checkpoint unknown: %v", err)
	}
}

func TestNotificationsRelayToSink(t *testing.T) {
	st := newStation(t)
	alerts := make(chan agent.Alert, 4)
	st.ag.OnAlert(func(al agent.Alert) { alerts <- al })
	_, err := st.ag.Deploy(agent.DeploySpec{
		Chain:  "ids",
		Client: "phone",
		Functions: []agent.NFSpec{{
			Kind: "counter", Name: "ids0",
			Params: nf.Params{"signatures": "attack-marker"},
		}},
		Enabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.client.SendUDP(packet.Endpoint{Addr: serverIP, Port: 1}, 2, []byte("attack-marker payload"))
	select {
	case al := <-alerts:
		if al.Station != "st-1" || al.Notification.Kind != "counter" {
			t.Fatalf("alert = %+v", al)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("alert never relayed")
	}
}

func TestClientEventsFire(t *testing.T) {
	st := newStation(t)
	events := make(chan agent.ClientEvent, 4)
	st.ag.OnClientEvent(func(ev agent.ClientEvent) { events <- ev })
	st.ag.AttachClient("tablet", packet.MAC{2, 9, 9, 9, 9, 9}, packet.IP{10, 0, 0, 9}, 7)
	ev := <-events
	if !ev.Connected || ev.Client != "tablet" || ev.Station != "st-1" {
		t.Fatalf("event = %+v", ev)
	}
	st.ag.DetachClient("tablet")
	ev = <-events
	if ev.Connected {
		t.Fatalf("event = %+v", ev)
	}
	// Detaching an unknown client fires nothing.
	st.ag.DetachClient("ghost")
	select {
	case ev := <-events:
		t.Fatalf("spurious event %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	if _, _, _, err := st.ag.Client("ghost"); !errors.Is(err, agent.ErrUnknownClient) {
		t.Fatalf("Client(ghost): %v", err)
	}
}

func TestReportContents(t *testing.T) {
	st := newStation(t)
	if _, err := st.ag.Deploy(firewallSpec("ch1", "")); err != nil {
		t.Fatal(err)
	}
	rep := st.ag.Report()
	if rep.Station != "st-1" {
		t.Fatalf("station = %q", rep.Station)
	}
	if rep.Usage.Containers != 1 {
		t.Fatalf("usage = %+v", rep.Usage)
	}
	if len(rep.Chains) != 1 || rep.Chains[0].Chain != "ch1" || !rep.Chains[0].Enabled {
		t.Fatalf("chains = %+v", rep.Chains)
	}
	if rep.Switch.Rules != 2 {
		t.Fatalf("switch rules = %d", rep.Switch.Rules)
	}
}
