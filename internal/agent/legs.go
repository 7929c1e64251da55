// Steering: a deployment is what serves — an exclusive chain's two service
// ports, or a pool attachment's two select groups — plus two legs, ingress
// toward the client and egress toward the Internet (proto.go's Leg). A local
// chain, a GNFC offload, a live handoff's detour and every segment of a
// split chain are the same thing with different legs, so there is one
// function that turns legs into switch rules (steeringRules) and one that
// swaps a deployment's rule set (setLegs). DESIGN.md, "Steering: legs", has
// the rule table.
package agent

import (
	"errors"
	"fmt"

	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/topology"
)

// ErrPooledLegs rejects moving a pool attachment's legs off this station's
// edge. A tunnel leg's return rule matches on the service port the chain
// emits from, and a pool's replica ports are every sharer's: it would take
// per-replica rules narrowed by client MAC and refreshed on every ScalePool.
var ErrPooledLegs = errors.New("agent: a pool attachment's legs stay on this station's edge")

// steering is the part of a deployment its switch rules are derived from.
type steering struct {
	ingress, egress Leg
	// deliver is false only for a disabled pool attachment, whose rules drop:
	// the instance keeps forwarding for its other sharers, so failing closed
	// is the rules' job. An exclusive chain's host drops or parks by itself.
	deliver bool
}

// legKind is what a Leg resolves to on this station.
type legKind uint8

const (
	legEdge   legKind = iota // the client's access port (ingress), the uplink (egress)
	legTunnel                // the local port of the tunnel to another station
	legPeer                  // the ingress service port of a deployment hosted here
)

type legEnd struct {
	kind legKind
	port netem.PortID // unused for a peer ingress leg: the upstream side owns that wire
}

// serving is where steering rules deliver a deployment's frames: in and out
// are service ports under ActionRedirect, select groups under ActionGroup
// and unused under ActionDrop.
type serving struct {
	action  netem.Action
	in, out int
}

// steeringRules is the rule table: every steering rule of every deployment
// comes out of it.
//
// Ingress. Edge: whatever the client's access port receives is delivered to
// the ingress side; what the chain sends back reaches the client through
// its pinned MAC and needs no rule. Tunnel: the tunnel carries other
// clients too, so delivery is narrowed to this client's source MAC, and
// whatever the ingress service port emits is wired back into the tunnel.
// Peer: nothing — both directions of a port-to-port wire belong to the
// deployment upstream of it.
//
// Egress. Edge: return traffic for the client is picked off the uplink and
// delivered to the egress side — by IP for a client on this station, by MAC
// for one that is not, so that unicast ARP replies follow it too; forward
// output takes the normal path. Tunnel and peer: the egress service port is
// wired onto the tunnel, or onto the peer's ingress port, and what comes
// back from there is delivered to the egress side.
//
// Only a deployment served by ports can be wired from, which is why a pool
// attachment has edge legs only.
func steeringRules(mac packet.MAC, ip packet.IP, ingress, egress legEnd, to serving) []netem.Rule {
	deliver := func(m netem.Match, side int) netem.Rule {
		r := netem.Rule{Priority: steerPriority, Match: m, Action: to.action}
		switch to.action {
		case netem.ActionRedirect:
			r.OutPort = netem.PortID(side)
		case netem.ActionGroup:
			r.Group = side
		}
		return r
	}
	wire := func(from int, onto netem.PortID) netem.Rule {
		p := netem.PortID(from)
		return netem.Rule{Priority: steerPriority, Match: netem.Match{InPort: &p}, Action: netem.ActionRedirect, OutPort: onto}
	}
	var rules []netem.Rule
	switch ingress.kind {
	case legEdge:
		rules = append(rules, deliver(netem.Match{InPort: &ingress.port}, to.in))
	case legTunnel:
		rules = append(rules,
			deliver(netem.Match{InPort: &ingress.port, SrcMAC: &mac}, to.in),
			wire(to.in, ingress.port))
	}
	switch egress.kind {
	case legEdge:
		m := netem.Match{InPort: &egress.port, DstMAC: &mac}
		if ingress.kind == legEdge {
			m = netem.Match{InPort: &egress.port, DstIP: &ip}
		}
		rules = append(rules, deliver(m, to.out))
	case legTunnel:
		rules = append(rules,
			wire(to.out, egress.port),
			deliver(netem.Match{InPort: &egress.port, DstMAC: &mac}, to.out))
	case legPeer:
		rules = append(rules,
			wire(to.out, egress.port),
			deliver(netem.Match{InPort: &egress.port}, to.out))
	}
	return rules
}

// rulesFor resolves a deployment's steering against this station's tables
// and returns its rules. A deployment whose ingress leg is the edge has no
// rules at all until its client is here; it keeps the addressing it then
// sees, so the leg can later follow the client onto a tunnel after the
// client itself has left. Called with a.mu held.
func (a *Agent) rulesFor(d *deployment, s steering) ([]netem.Rule, error) {
	self := string(a.station)
	tunnel := func(station string) (legEnd, error) {
		tp, ok := a.tunnels[topology.StationID(station)]
		if !ok {
			return legEnd{}, fmt.Errorf("%w: %s", ErrNoTunnel, station)
		}
		return legEnd{legTunnel, tp}, nil
	}
	var in, out legEnd
	var err error
	switch s.ingress.Station {
	case "":
		ci, here := a.clients[topology.ClientID(d.spec.Client)]
		if !here {
			return nil, nil
		}
		d.spec.ClientMAC, d.spec.ClientIP = ci.mac, ci.ip
		in = legEnd{legEdge, ci.port}
	case self:
		in = legEnd{kind: legPeer}
	default:
		if in, err = tunnel(s.ingress.Station); err != nil {
			return nil, err
		}
	}
	switch s.egress.Station {
	case "":
		out = legEnd{legEdge, a.uplink}
	case self:
		peer, ok := a.deployments[s.egress.Peer]
		if !ok || peer.building || peer.res == nil {
			return nil, fmt.Errorf("%w: %s (egress peer of %s not deployed here)", ErrUnknownChain, s.egress.Peer, d.spec.Chain)
		}
		out = legEnd{legPeer, peer.res.inPort}
	default:
		if out, err = tunnel(s.egress.Station); err != nil {
			return nil, err
		}
	}
	if in.kind != legEdge && d.spec.ClientMAC.IsZero() {
		// A local deployment learns its client's addressing when it first
		// sees the client.
		return nil, fmt.Errorf("%w: %s (no addressing to match away from its access port)", ErrUnknownClient, d.spec.Client)
	}
	to := serving{action: netem.ActionDrop}
	switch {
	case d.shared == nil:
		to = serving{netem.ActionRedirect, int(d.res.inPort), int(d.res.outPort)}
	case s.deliver:
		res := d.shared.Payload().(*poolResources)
		to = serving{netem.ActionGroup, res.inGroup, res.outGroup}
	}
	return steeringRules(d.spec.ClientMAC, d.spec.ClientIP, in, out, to), nil
}

// setLegs is the one place a deployment's steering changes: change edits a
// copy of it (nil re-derives the rules of the steering as it stands, for a
// client that has associated since), the new rule set is installed, swapped
// in under a.mu, and only then does the old set go — no unsteered window.
// Nothing happens when the steering is unchanged and its rules are in.
//
// The intent is recorded before the install, so concurrent calls build on
// each other; each bumps steerSeq, and an installer that finds a newer
// sequence — or the deployment removed — at swap time takes its own rules
// back out: the rules on the switch are always the latest intent's, and a
// removed deployment's are none.
func (a *Agent) setLegs(d *deployment, change func(*steering)) error {
	a.mu.Lock()
	want := d.steering
	if change != nil {
		change(&want)
	}
	if d.removed {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownChain, d.spec.Chain)
	}
	if want == d.steering && len(d.ruleIDs) != 0 {
		a.mu.Unlock()
		return nil
	}
	rules, err := a.rulesFor(d, want)
	if err != nil {
		a.mu.Unlock()
		return err
	}
	d.steering = want
	d.steerSeq++
	seq := d.steerSeq
	a.mu.Unlock()

	ids := make([]int, len(rules))
	for i, r := range rules {
		ids[i] = a.sw.AddRule(r)
	}
	if a.steerHook != nil {
		a.steerHook()
	}

	a.mu.Lock()
	stale := d.ruleIDs
	switch {
	case d.removed:
		stale, err = ids, fmt.Errorf("%w: %s", ErrUnknownChain, d.spec.Chain)
	case d.steerSeq != seq:
		stale = ids
	default:
		d.ruleIDs = ids
	}
	a.mu.Unlock()
	for _, id := range stale {
		a.sw.RemoveRule(id)
	}
	return err
}

// Retarget re-points a deployment's legs; a nil leg stays as it is. The
// chain stays put and only its rules move: a head serving its client over a
// tunnel, and a split chain's neighbours following a segment that moved.
func (a *Agent) Retarget(chain string, ingress, egress *Leg) error {
	d, err := a.get(chain)
	if err != nil {
		return err
	}
	if d.shared != nil {
		return fmt.Errorf("%w: %s", ErrPooledLegs, chain)
	}
	return a.setLegs(d, func(s *steering) {
		if ingress != nil {
			s.ingress = *ingress
		}
		if egress != nil {
			s.egress = *egress
		}
	})
}
