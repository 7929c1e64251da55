// GNFC offload support (Cziva et al., "GNFC: Towards Network Function
// Cloudification", IEEE NFV-SDN 2016 — reference [2] of the demo paper):
// chains can run away from the client's station, typically on a cloud
// site, with the client's traffic detoured through a provisioned tunnel.
//
// The agent's share of the mechanism is three-fold:
//
//   - Tunnels: the wiring layer provisions one WAN-emulated veth between
//     every edge station and every cloud site, attached as *service* ports
//     (no MAC learning, excluded from flooding) so the L2 topology stays
//     loop-free, and registers each end here.
//   - Detour steering (client's station): a high-priority rule redirects
//     everything the client emits into the tunnel toward the hosting site.
//   - Tunnel client leg (hosting site): the chain's client leg rides the
//     tunnel instead of an access port (installClientLeg in agent.go).
//
// A live handoff borrows the last two between edge stations: while the
// target boots, the client's new station detours it back to the source,
// whose chain's client leg Retarget has moved onto the tunnel.
package agent

import (
	"fmt"
	"sort"

	"gnf/internal/netem"
	"gnf/internal/topology"
)

// RegisterTunnel records the local switch port of a provisioned tunnel to
// peer. The wiring layer calls this on both ends after attaching the
// tunnel veth as service ports.
func (a *Agent) RegisterTunnel(peer topology.StationID, port netem.PortID) {
	a.mu.Lock()
	a.tunnels[peer] = port
	a.mu.Unlock()
}

// TunnelTo reports the local port of the tunnel to peer.
func (a *Agent) TunnelTo(peer topology.StationID) (netem.PortID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.tunnels[peer]
	return p, ok
}

// Tunnels lists registered tunnel peers.
func (a *Agent) Tunnels() []topology.StationID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]topology.StationID, 0, len(a.tunnels))
	for p := range a.tunnels {
		out = append(out, p)
	}
	return out
}

// Steer detours everything the client emits into the tunnel toward via —
// the client-station half of an offload. Re-steering an already steered
// client atomically replaces the previous detour.
func (a *Agent) Steer(client topology.ClientID, via topology.StationID) error {
	a.mu.Lock()
	ci, haveClient := a.clients[client]
	tp, haveTunnel := a.tunnels[via]
	oldRule, wasSteered := a.steers[client]
	a.mu.Unlock()
	if !haveClient {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	if !haveTunnel {
		return fmt.Errorf("%w: %s", ErrNoTunnel, via)
	}
	cp := ci.port
	id := a.sw.AddRule(netem.Rule{
		Priority: detourPriority,
		Match:    netem.Match{InPort: &cp},
		Action:   netem.ActionRedirect,
		OutPort:  tp,
	})
	a.mu.Lock()
	a.steers[client] = id
	a.mu.Unlock()
	if wasSteered {
		a.sw.RemoveRule(oldRule)
	}
	return nil
}

// ClearSteer removes the client's detour; its traffic flows the normal
// station path (and through any local chains) again.
func (a *Agent) ClearSteer(client topology.ClientID) error {
	a.mu.Lock()
	id, ok := a.steers[client]
	delete(a.steers, client)
	a.mu.Unlock()
	if !ok {
		return nil // idempotent: recall after partial failures re-clears
	}
	a.sw.RemoveRule(id)
	return nil
}

// Steered reports whether the client currently has a detour installed.
func (a *Agent) Steered(client topology.ClientID) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.steers[client]
	return ok
}

// Detours lists the clients with a detour installed, sorted.
func (a *Agent) Detours() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.steers))
	for c := range a.steers {
		out = append(out, string(c))
	}
	sort.Strings(out)
	return out
}

// Retarget re-points a whole-chain deployment's client leg: at the tunnel
// to via, or — via "" — back at the client's local access port (no rules
// at all while the client is not here). The chain stays put, only its
// client-facing rules move, and the new set is in before the old one goes,
// so there is no unsteered window. It is the hosting-site half of roaming
// an offloaded client, and of a live handoff's detour: the source station
// keeps serving the client that left it, across the tunnel, until the
// target is ready. Shared attachments and split-chain segments own no
// client leg and are refused.
func (a *Agent) Retarget(chain string, via topology.StationID) error {
	a.mu.Lock()
	dep, ok := a.deployments[chain]
	if !ok || dep.building {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownChain, chain)
	}
	if dep.shared != nil || dep.spec.SegCount > 1 {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRemote, chain)
	}
	spec := dep.spec
	spec.Via = string(via)
	leg, have, err := a.clientLegOf(spec)
	a.mu.Unlock()
	if err != nil {
		return err
	}

	var newRules []int
	if have {
		newRules = a.installClientLeg(leg, dep.ports[0], dep.ports[1])
	}
	a.mu.Lock()
	old := dep.ruleIDs
	if a.deployments[chain] == dep {
		dep.ruleIDs = newRules
		dep.spec.Via = spec.Via
	} else {
		// Removed meanwhile, its rules with it: the set just installed is
		// nobody's to clean up but ours.
		old, err = newRules, fmt.Errorf("%w: %s", ErrUnknownChain, chain)
	}
	a.mu.Unlock()
	for _, id := range old {
		a.sw.RemoveRule(id)
	}
	return err
}
