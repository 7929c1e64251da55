package agent_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"gnf/internal/agent"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// ruleKey spells one rule out, pointers followed and the ID left off, so
// rule sets compare whatever order they went in.
func ruleKey(r netem.Rule) string {
	m := r.Match
	key := fmt.Sprintf("prio=%d in=%v", r.Priority, *m.InPort)
	if m.SrcMAC != nil {
		key += fmt.Sprintf(" src=%v", *m.SrcMAC)
	}
	if m.DstMAC != nil {
		key += fmt.Sprintf(" dst=%v", *m.DstMAC)
	}
	if m.DstIP != nil {
		key += fmt.Sprintf(" dstip=%v", *m.DstIP)
	}
	if m.EtherType != nil || m.VID != nil || m.SrcIP != nil || m.Proto != nil || m.SrcPort != nil || m.DstPort != nil {
		key += " +unexpected match fields"
	}
	switch r.Action {
	case netem.ActionRedirect:
		return key + fmt.Sprintf(" -> port %d", r.OutPort)
	case netem.ActionGroup:
		return key + fmt.Sprintf(" -> group %d", r.Group)
	case netem.ActionDrop:
		return key + " -> drop"
	}
	return key + fmt.Sprintf(" -> action %d", r.Action)
}

func ruleKeys(rules []netem.Rule) []string {
	keys := make([]string, 0, len(rules))
	for _, r := range rules {
		keys = append(keys, ruleKey(r))
	}
	sort.Strings(keys)
	return keys
}

// legCase is one kind of leg, seen from the station under test ("edge": the
// client on port 1, the uplink on port 0, a tunnel to "cloud" on port 50 and
// one to "east" on port 60).
type legCase int

const (
	onEdge   legCase = iota // the access port (ingress), the uplink (egress)
	onTunnel                // the cloud tunnel (ingress), the east tunnel (egress)
	onPeer                  // a deployment on this very station
)

func (c legCase) String() string { return [...]string{"edge", "tunnel", "peer"}[c] }

// TestSteeringRuleTable pins the exact rule set of every ingress × egress ×
// serving combination. It was written against the three installers that
// preceded the rule function (installClientLeg, installSegmentSteering,
// setSharedSteering), which between them covered every row under the names
// local, offloaded/detoured, head, middle and tail; only withLegs, which
// spells a row as a DeploySpec, differs from that version.
func TestSteeringRuleTable(t *testing.T) {
	const (
		cp, up, tunIn, tunOut = 1, 0, 50, 60
		peerIn                = 1000 // the downstream deployment's ingress service port
		in, out               = 1002, 1003
		inGroup, outGroup     = 1, 2
	)
	redirect := func(m netem.Match, to netem.PortID) netem.Rule {
		return netem.Rule{Priority: 100, Match: m, Action: netem.ActionRedirect, OutPort: to}
	}
	port := func(p netem.PortID) *netem.PortID { return &p }
	mac, ip := clientMAC, clientIP

	ingressRules := map[legCase][]netem.Rule{
		onEdge: {redirect(netem.Match{InPort: port(cp)}, in)},
		onTunnel: {
			redirect(netem.Match{InPort: port(tunIn), SrcMAC: &mac}, in),
			redirect(netem.Match{InPort: port(in)}, tunIn),
		},
		onPeer: nil, // the upstream deployment owns that wire
	}
	egressRules := func(ingress, egress legCase) []netem.Rule {
		switch egress {
		case onTunnel:
			return []netem.Rule{
				redirect(netem.Match{InPort: port(out)}, tunOut),
				redirect(netem.Match{InPort: port(tunOut), DstMAC: &mac}, out),
			}
		case onPeer:
			return []netem.Rule{
				redirect(netem.Match{InPort: port(out)}, peerIn),
				redirect(netem.Match{InPort: port(peerIn)}, out),
			}
		}
		if ingress == onEdge {
			return []netem.Rule{redirect(netem.Match{InPort: port(up), DstIP: &ip}, out)}
		}
		return []netem.Rule{redirect(netem.Match{InPort: port(up), DstMAC: &mac}, out)}
	}
	pooled := func(action netem.Action, inG, outG int) []netem.Rule {
		return []netem.Rule{
			{Priority: 100, Match: netem.Match{InPort: port(cp)}, Action: action, Group: inG},
			{Priority: 100, Match: netem.Match{InPort: port(up), DstIP: &ip}, Action: action, Group: outG},
		}
	}

	servings := []struct {
		name    string
		fn      agent.NFSpec // a nat keeps its chain exclusive, a firewall alone pools
		enabled bool
	}{
		{"exclusive", agent.NFSpec{Kind: "nat", Name: "f0", Params: nf.Params{"nat_ip": "192.168.77.1"}}, true},
		{"pool", agent.NFSpec{Kind: "firewall", Name: "f0"}, true},
		{"disabled pool", agent.NFSpec{Kind: "firewall", Name: "f0"}, false},
	}
	for _, ingress := range []legCase{onEdge, onTunnel, onPeer} {
		for _, egress := range []legCase{onEdge, onTunnel, onPeer} {
			for _, sv := range servings {
				t.Run(fmt.Sprintf("%v x %v x %s", ingress, egress, sv.name), func(t *testing.T) {
					ts := newTwoSites(t)
					sw := ts.edge.Switch()
					east, _ := netem.NewVethPair("east-a", "east-b")
					sw.AttachService(tunOut, east)
					ts.edge.RegisterTunnel("east", tunOut)

					// The downstream neighbour, on this station, takes service
					// ports 1000 and 1001; the deployment under test gets the
					// next two. Its name is the one a split chain's next segment
					// would carry.
					chain, peer := "web", "web#1"
					if ingress != onEdge {
						chain, peer = "web#1", "web#2"
					}
					down := withLegs(agent.DeploySpec{
						Chain: peer, Client: "phone", ClientMAC: mac, ClientIP: ip, Enabled: true,
						Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}},
					}, chain, "", onPeer, onEdge)
					if _, err := ts.edge.Deploy(down); err != nil {
						t.Fatal(err)
					}
					before := len(sw.Rules())

					spec := withLegs(agent.DeploySpec{
						Chain: chain, Client: "phone", ClientMAC: mac, ClientIP: ip, Enabled: sv.enabled,
						Functions: []agent.NFSpec{sv.fn},
					}, "web-up", peer, ingress, egress)
					res, err := ts.edge.Deploy(spec)
					if err != nil {
						t.Fatal(err)
					}

					// Only a chain with both legs on the edge attaches to a pool.
					wantShared := sv.fn.Kind == "firewall" && ingress == onEdge && egress == onEdge
					if res.Shared != wantShared {
						t.Fatalf("deploy result shared = %v, want %v", res.Shared, wantShared)
					}
					want := append(append([]netem.Rule{}, ingressRules[ingress]...), egressRules(ingress, egress)...)
					if wantShared {
						want = pooled(netem.ActionGroup, inGroup, outGroup)
						if !sv.enabled {
							want = pooled(netem.ActionDrop, 0, 0)
						}
					}
					got := installedRules(sw)[before:]
					if g, w := ruleKeys(got), ruleKeys(want); fmt.Sprint(g) != fmt.Sprint(w) {
						t.Fatalf("rules:\n got %q\nwant %q", g, w)
					}
				})
			}
		}
	}
}

// withLegs puts a deployment's ingress and egress legs on the edge, on the
// tunnels to "cloud" and "east", or on the named neighbours on this station.
func withLegs(spec agent.DeploySpec, upstream, downstream string, ingress, egress legCase) agent.DeploySpec {
	switch ingress {
	case onTunnel:
		spec.Ingress = agent.Leg{Station: "cloud", Peer: upstream}
	case onPeer:
		spec.Ingress = agent.Leg{Station: "edge", Peer: upstream}
	}
	switch egress {
	case onTunnel:
		spec.Egress = agent.Leg{Station: "east", Peer: downstream}
	case onPeer:
		spec.Egress = agent.Leg{Station: "edge", Peer: downstream}
	}
	return spec
}

// TestSplitChainCarriesTrafficBothWays sends a client's UDP exchange across
// a chain split in two — head, then tail, then the uplink, and back — once
// with the segments on two stations and a tunnel between them, once with
// both on one station and a port-to-port wire.
func TestSplitChainCarriesTrafficBothWays(t *testing.T) {
	for _, tailAt := range []string{"cloud", "edge"} {
		t.Run("tail on "+tailAt, func(t *testing.T) {
			ts := newTwoSites(t)
			tailAg := map[string]*agent.Agent{"cloud": ts.cloud, "edge": ts.edge}[tailAt]
			// Tail first: a port-to-port wire needs its far end in place.
			if _, err := tailAg.Deploy(agent.DeploySpec{
				Chain: "web#1", Client: "phone", ClientMAC: clientMAC, ClientIP: clientIP, Enabled: true,
				Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}},
				Ingress:   agent.Leg{Station: "edge", Peer: "web"},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := ts.edge.Deploy(agent.DeploySpec{
				Chain: "web", Client: "phone", Enabled: true,
				Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw0", Params: nf.Params{"policy": "accept"}}},
				Egress:    agent.Leg{Station: tailAt, Peer: "web#1"},
			}); err != nil {
				t.Fatal(err)
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
				t.Fatal("the request never reached the server")
			}
			if err := ts.server.SendUDP(packet.Endpoint{Addr: clientIP, Port: 6000}, 7000, []byte("pong")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-pong:
			case <-timeoutC(t):
				t.Fatal("the reply never reached the client")
			}

			processed := map[string]uint64{}
			for _, ag := range []*agent.Agent{ts.edge, ts.cloud} {
				rep := ag.Report()
				for _, cs := range rep.Chains {
					processed[cs.Chain] = cs.Processed
				}
				if rep.Switch.Dropped != 0 {
					t.Errorf("%s's switch dropped %d frames", rep.Station, rep.Switch.Dropped)
				}
			}
			for _, seg := range []string{"web", "web#1"} {
				if processed[seg] != 2 {
					t.Errorf("segment %s processed %d frames, want the request and the reply", seg, processed[seg])
				}
			}
		})
	}
}

// TestRetargetRacingRemoveLeavesNoRules lands a Remove inside a steering
// swap's only window — the new rules are on the switch, the deployment does
// not own them yet — and again around it from another goroutine. Whoever
// wins, every rule of the removed deployment must be gone: one left behind
// keeps matching the client's MAC on a tunnel port into a detached service
// port.
func TestRetargetRacingRemoveLeavesNoRules(t *testing.T) {
	exclusive := natSpec("moving")
	exclusive.ClientMAC, exclusive.ClientIP = clientMAC, clientIP
	segment := exclusive
	segment.Ingress = agent.Leg{Station: "cloud", Peer: "up"}
	segment.Egress = agent.Leg{Station: "cloud", Peer: "down"}
	toEast := &agent.Leg{Station: "east", Peer: "up"}
	rows := []struct {
		name string
		spec agent.DeploySpec
		// swap re-steers the deployment; a removal may refuse it.
		swap func(ag *agent.Agent) error
	}{
		{"exclusive", exclusive, func(ag *agent.Agent) error { return ag.Retarget("moving", toEast, nil) }},
		{"split segment", segment, func(ag *agent.Agent) error { return ag.Retarget("moving", toEast, toEast) }},
		{"pool attachment", firewallSpec("moving", ""), func(ag *agent.Agent) error { return ag.Disable("moving") }},
	}
	for _, row := range rows {
		setup := func(t *testing.T) *agent.Agent {
			ts := newTwoSites(t)
			east, _ := netem.NewVethPair("east-a", "east-b")
			ts.edge.Switch().AttachService(60, east)
			ts.edge.RegisterTunnel("east", 60)
			if _, err := ts.edge.Deploy(row.spec); err != nil {
				t.Fatal(err)
			}
			return ts.edge
		}
		check := func(t *testing.T, ag *agent.Agent, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, agent.ErrUnknownChain) {
				t.Fatalf("swap: %v", err)
			}
			if got := ag.Switch().Stats().Rules; got != 0 {
				t.Fatalf("%d rules outlive the removed deployment: %+v", got, ruleKeys(ag.Switch().Rules()))
			}
		}
		t.Run(row.name+"/removed mid-swap", func(t *testing.T) {
			ag := setup(t)
			ag.SetSteerHook(func() {
				if err := ag.Remove("moving"); err != nil {
					t.Errorf("remove: %v", err)
				}
			})
			err := row.swap(ag)
			if !errors.Is(err, agent.ErrUnknownChain) {
				t.Errorf("a swap that lost its deployment reported %v", err)
			}
			check(t, ag, err)
		})
		t.Run(row.name+"/removed concurrently", func(t *testing.T) {
			for i := 0; i < 200; i++ { // the window is hit about once in 35 tries
				ag := setup(t)
				var wg sync.WaitGroup
				var swapErr, removeErr error
				wg.Add(2)
				go func() { defer wg.Done(); swapErr = row.swap(ag) }()
				go func() { defer wg.Done(); removeErr = ag.Remove("moving") }()
				wg.Wait()
				if removeErr != nil {
					t.Fatalf("remove: %v", removeErr)
				}
				check(t, ag, swapErr)
			}
		})
	}
}
