package core

import (
	"fmt"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/manager"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/traffic"
)

// cloudSystem is demoSystem plus one GNFC cloud site ("nimbus") behind a
// 5 ms WAN link.
func cloudSystem(t *testing.T, strategy manager.Strategy) (*System, *traffic.Sink) {
	t.Helper()
	cfg := twoStationConfig(strategy)
	cfg.Clouds = []CloudConfig{{
		ID:  "nimbus",
		WAN: netem.LinkParams{Delay: 5 * time.Millisecond},
	}}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		t.Fatal(err)
	}
	server := sys.AddServer("web", serverMAC, serverIP)
	sink := traffic.NewSink(server, 7000, sys.Clock)
	server.Learn(phoneIP, phoneMAC)
	if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.ClientHost("phone").Learn(serverIP, serverMAC)
	return sys, sink
}

// waitDelivered polls the sink until it holds want packets.
func waitDelivered(t *testing.T, sink *traffic.Sink, want int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for sink.Count() < want {
		select {
		case <-deadline:
			t.Fatalf("delivered %d of %d", sink.Count(), want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestOffloadMovesChainsToCloud(t *testing.T) {
	sys, sink := cloudSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", firewallChain("fw-chain")); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", "fw-chain", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	phone := sys.ClientHost("phone")
	sent := traffic.CBR(phone, packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, 10, 64, 1000)
	waitDelivered(t, sink, sent)

	if err := sys.OffloadClient("phone", "nimbus"); err != nil {
		t.Fatalf("OffloadClient: %v", err)
	}
	if got := sys.Manager.Offloaded("phone"); got != "nimbus" {
		t.Fatalf("Offloaded = %q", got)
	}
	// The chain left the edge and runs on the cloud site.
	if got := sys.Agent("st-a").Chains(); len(got) != 0 {
		t.Fatalf("st-a still hosts %v", got)
	}
	if got := sys.Agent("nimbus").Chains(); len(got) != 1 || got[0] != "fw-chain" {
		t.Fatalf("nimbus chains = %v", got)
	}
	if !sys.Agent("st-a").Steered("phone") {
		t.Fatal("detour not installed on st-a")
	}

	// Traffic still reaches the server — now via the cloud detour.
	sent2 := traffic.CBRFrom(phone, packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, 1000, 10, 64, 1000)
	waitDelivered(t, sink, sent+sent2)

	// The offloaded firewall still filters: the blocked port dies at the
	// cloud, not at the edge.
	phone.SendUDP(packet.Endpoint{Addr: serverIP, Port: 9999}, 6001, []byte{0, 0, 0, 0, 0, 0, 0, 9})
	deadline := time.After(5 * time.Second)
	for {
		fn, err := sys.Agent("nimbus").ChainFunction("fw-chain")
		if err != nil {
			t.Fatal(err)
		}
		if fn.NFStats()["fw0.dropped"] == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("blocked packet never dropped at cloud: %v", fn.NFStats())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestOffloadedClientRoamsBySteeringOnly(t *testing.T) {
	sys, sink := cloudSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", firewallChain("fw-chain")); err != nil {
		t.Fatal(err)
	}
	if err := sys.OffloadClient("phone", "nimbus"); err != nil {
		t.Fatal(err)
	}
	migsBefore := len(sys.Manager.Migrations())

	// Roam: the chain must stay on the cloud; only steering moves.
	if err := sys.Topo.Attach("phone", "cell-b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-b", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()

	if got := sys.Agent("nimbus").Chains(); len(got) != 1 {
		t.Fatalf("nimbus chains = %v", got)
	}
	if got := sys.Agent("st-b").Chains(); len(got) != 0 {
		t.Fatalf("st-b hosts %v, wanted steering only", got)
	}
	if !sys.Agent("st-b").Steered("phone") {
		t.Fatal("detour not moved to st-b")
	}
	if sys.Agent("st-a").Steered("phone") {
		t.Fatal("stale detour on st-a")
	}

	migs := sys.Manager.Migrations()
	if len(migs) != migsBefore+1 {
		t.Fatalf("migrations = %+v", migs[migsBefore:])
	}
	last := migs[len(migs)-1]
	if last.Strategy != manager.StrategySteer || last.To != "st-b" {
		t.Fatalf("roam report = %+v", last)
	}

	// Traffic keeps flowing from the new station through the cloud.
	phone := sys.ClientHost("phone")
	phone.Learn(serverIP, serverMAC)
	sent := traffic.CBRFrom(phone, packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, 5000, 10, 64, 1000)
	waitDelivered(t, sink, sent)
}

func TestRecallClientReturnsChainsToEdge(t *testing.T) {
	sys, sink := cloudSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", firewallChain("fw-chain")); err != nil {
		t.Fatal(err)
	}
	if err := sys.OffloadClient("phone", "nimbus"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RecallClient("phone"); err != nil {
		t.Fatalf("RecallClient: %v", err)
	}
	if got := sys.Manager.Offloaded("phone"); got != "" {
		t.Fatalf("still offloaded to %q", got)
	}
	if got := sys.Agent("nimbus").Chains(); len(got) != 0 {
		t.Fatalf("nimbus still hosts %v", got)
	}
	if got := sys.Agent("st-a").Chains(); len(got) != 1 || got[0] != "fw-chain" {
		t.Fatalf("st-a chains = %v", got)
	}
	if sys.Agent("st-a").Steered("phone") {
		t.Fatal("detour survived recall")
	}
	phone := sys.ClientHost("phone")
	sent := traffic.CBRFrom(phone, packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, 9000, 10, 64, 1000)
	waitDelivered(t, sink, sent)

	// And the recalled client roams normally again: chains migrate.
	if err := sys.Topo.Attach("phone", "cell-b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-b", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()
	if err := sys.WaitChainOn("st-b", "fw-chain", 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadRequiresCloudSite(t *testing.T) {
	sys, _ := cloudSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", firewallChain("fw-chain")); err != nil {
		t.Fatal(err)
	}
	// st-b is an edge station, not a cloud site.
	if err := sys.OffloadClient("phone", "st-b"); err == nil {
		t.Fatal("offload to an edge station must fail")
	}
	// Double offload is rejected.
	if err := sys.OffloadClient("phone", "nimbus"); err != nil {
		t.Fatal(err)
	}
	if err := sys.OffloadClient("phone", "nimbus"); err == nil {
		t.Fatal("double offload must fail")
	}
}

func TestAutoOffloadBurstsHotspotToCloud(t *testing.T) {
	sys, _ := cloudSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", firewallChain("fw-chain")); err != nil {
		t.Fatal(err)
	}
	// Threshold zero: any station that has reported counts as hot.
	sys.Manager.SetHotspotCPU(0)
	deadline := time.After(5 * time.Second)
	for len(sys.Manager.Hotspots()) == 0 {
		select {
		case <-deadline:
			t.Fatal("no hotspot detected")
		case <-time.After(10 * time.Millisecond):
		}
	}
	reports, err := sys.Manager.AutoOffload()
	if err != nil {
		t.Fatalf("AutoOffload: %v", err)
	}
	if len(reports) != 1 || reports[0].Client != "phone" || reports[0].Site != "nimbus" {
		t.Fatalf("reports = %+v", reports)
	}
	if got := sys.Manager.Offloaded("phone"); got != "nimbus" {
		t.Fatalf("Offloaded = %q", got)
	}
}

func TestCloudSitesListed(t *testing.T) {
	sys, _ := cloudSystem(t, manager.StrategyStateful)
	sites := sys.CloudSites()
	if len(sites) != 1 || sites[0] != topology.StationID("nimbus") {
		t.Fatalf("CloudSites = %v", sites)
	}
}

func TestOffloadMultipleChains(t *testing.T) {
	sys, sink := cloudSystem(t, manager.StrategyStateful)
	if err := sys.AttachChain("phone", firewallChain("fw-chain")); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachChain("phone", manager.ChainSpec{
		Name:      "acct-chain",
		Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Manager.OffloadClient("phone", "nimbus")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chains) != 2 {
		t.Fatalf("offload report = %+v", rep)
	}
	if got := sys.Agent("nimbus").Chains(); len(got) != 2 {
		t.Fatalf("nimbus chains = %v", got)
	}
	if got := sys.Agent("st-a").Chains(); len(got) != 0 {
		t.Fatalf("st-a chains = %v", got)
	}

	// Roam with both chains offloaded: still a pure steering update.
	if err := sys.Topo.Attach("phone", "cell-b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-b", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Manager.WaitIdle()
	if got := sys.Agent("nimbus").Chains(); len(got) != 2 {
		t.Fatalf("nimbus chains after roam = %v", got)
	}
	phone := sys.ClientHost("phone")
	phone.Learn(serverIP, serverMAC)
	sent := traffic.CBRFrom(phone, packet.Endpoint{Addr: serverIP, Port: 7000}, 6000, 20000, 10, 64, 1000)
	waitDelivered(t, sink, sent)

	// Detaching one chain leaves the detour up for the other; detaching
	// the last clears it.
	if err := sys.Manager.DetachChain("phone", "fw-chain"); err != nil {
		t.Fatal(err)
	}
	if !sys.Agent("st-b").Steered("phone") {
		t.Fatal("detour dropped while a chain is still offloaded")
	}
	if err := sys.Manager.DetachChain("phone", "acct-chain"); err != nil {
		t.Fatal(err)
	}
	if sys.Agent("st-b").Steered("phone") {
		t.Fatal("detour survived the last chain")
	}
	if got := sys.Agent("nimbus").Chains(); len(got) != 0 {
		t.Fatalf("nimbus chains after detach = %v", got)
	}
}

// TestSplitChainAttachedOffloadedRoamsAndIsRecalled streams 1 kHz from a
// client offloaded before its split chain attaches: the head (natChain's
// counter) lands on the cloud site on the tunnel back to the client, segment
// 1 (its NAT) on the hub. The client then roams — a steer, nothing moves —
// and is recalled: the head alone comes back to the edge, carrying its
// state, and segment 1 is re-spliced onto it without moving. A frame the
// server sees translated crossed both segments, so none may be lost or pass
// the chain by outside the roam and the recall. (The NAT goes behind the
// counter because it rewrites the source MAC, which a next segment's tunnel
// ingress matches on.) The way back is measured, not held: a datagram from
// the Internet side to the phone is delivered where the backhaul last saw the
// phone, past the chain — and NAT replies have no return rule at all.
func TestSplitChainAttachedOffloadedRoamsAndIsRecalled(t *testing.T) {
	cfg := twoStationConfig(manager.StrategyStateful)
	// Sorting first makes it the aggregation hub.
	cfg.Stations = append(cfg.Stations, StationConfig{
		ID: "hub", Cells: []CellConfig{{ID: "cell-hub", Center: topology.Point{X: 1000}, Radius: 60}},
	})
	// A shaped link delays frame after frame: short enough to carry 1 kHz.
	cfg.Clouds = []CloudConfig{{ID: "nimbus", WAN: netem.LinkParams{Delay: 200 * time.Microsecond}}}
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
	if err := sys.OffloadClient("phone", "nimbus"); err != nil {
		t.Fatal(err)
	}
	split := natChain("edge")
	nat, acct := split.Functions[0], split.Functions[1]
	acct.Affinity, nat.Affinity = manager.AffinityNearClient, manager.AffinityAggregate
	split.Functions = []agent.NFSpec{acct, nat}

	echo := sys.AddServer("echo", packet.MAC{2, 0, 0, 0, 0, 0x97}, packet.IP{10, 99, 0, 3})
	echo.Learn(phoneIP, phoneMAC)
	arrived := make(chan struct{}, 8)
	sys.ClientHost("phone").HandleUDP(6001, func(_, _ packet.Endpoint, _ []byte) []byte {
		arrived <- struct{}{}
		return nil
	})
	var stages []string
	stage := func(name string) {
		at := map[string]string{}
		for _, pl := range sys.Manager.Placements() {
			at[pl.Chain] = pl.Station
		}
		stages = append(stages, at["edge"]+"+"+at["edge#1"])
		echo.SendUDP(packet.Endpoint{Addr: phoneIP, Port: 6001}, 7000, []byte(name))
		select {
		case <-arrived:
			t.Logf("%s: a datagram to the phone arrived", name)
		case <-time.After(100 * time.Millisecond):
			t.Logf("%s: a datagram to the phone was lost", name)
		}
	}
	var roamAt, roamEnd, recallAt, recallEnd uint32
	sent, _, log := streamAcross(t, sys, split, func(seq func() uint32) {
		stage("attached offloaded")
		roamAt = seq()
		if err := sys.Topo.Attach("phone", "cell-b"); err != nil {
			t.Fatal(err)
		}
		if err := sys.WaitClientAt("phone", "st-b", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		sys.Manager.WaitIdle()
		roamEnd = seq()
		stage("roamed")
		recallAt = seq()
		if err := sys.RecallClient("phone"); err != nil {
			t.Fatal(err)
		}
		recallEnd = seq()
		stage("recalled")
	})

	if want := "[nimbus+hub nimbus+hub st-b+hub]"; fmt.Sprint(stages) != want {
		t.Errorf("head+segment 1 ran on %v, want %s", stages, want)
	}
	var moves []string
	for _, mig := range sys.Manager.Migrations() {
		if mig.Err != "" {
			t.Errorf("failed migration: %+v", mig)
		}
		moves = append(moves, fmt.Sprintf("%s %s->%s", mig.Chain, mig.From, mig.To))
	}
	if want := "[ ->st-a  ->st-b edge nimbus->st-b]"; fmt.Sprint(moves) != want {
		t.Errorf("migrations %v, want the attach's and the roam's steers and the head's recall: %s", moves, want)
	}
	// Every frame is owed the chain unless it left during the roam or the
	// recall, or in the 15 ms of stragglers after either. The roam's window
	// opens 5 ms early: frames still queued toward st-a when the phone leaves
	// it find the phone's steer gone with the phone. The recall's freeze drops
	// what reaches the frozen head until the flip, as every recall does.
	inWindow := func(seq uint32) bool {
		return (seq+5 >= roamAt && seq <= roamEnd+15) || (seq >= recallAt && seq <= recallEnd+15)
	}
	var lost, bypassed, lostInWindows int
	log.mu.Lock()
	for _, seq := range sent {
		rewritten, arrived := log.rewritten[seq]
		switch {
		case !arrived && inWindow(seq):
			lostInWindows++
		case !arrived:
			lost++
		case !rewritten:
			bypassed++
			if !inWindow(seq) {
				t.Errorf("frame %d passed the chain by outside the roam (%d–%d) and the recall (%d–%d)", seq, roamAt, roamEnd, recallAt, recallEnd)
			}
		}
	}
	log.mu.Unlock()
	t.Logf("sent %d: lost %d outside the moves and %d inside, %d past the chain; roam %d–%d, recall %d–%d",
		len(sent), lost, lostInWindows, bypassed, roamAt, roamEnd, recallAt, recallEnd)
	if lost != 0 {
		t.Errorf("%d frames lost outside the roam and the recall", lost)
	}
	onePort(t, log)
	auditClean(t, sys)
}
