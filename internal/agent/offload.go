// Chains away from their client's station (GNFC offload: Cziva et al., "GNFC:
// Towards Network Function Cloudification", IEEE NFV-SDN 2016 — reference [2]
// of the demo paper). The wiring layer provisions tunnels — a WAN-emulated
// veth between every edge station and every cloud site, and the modelled
// edge-to-edge links — attached as *service* ports (no MAC learning, excluded
// from flooding) so the L2 topology stays loop-free, and registers each end
// here. A client whose chain runs elsewhere is steered there: a high-priority
// rule at its station redirects everything it emits into the tunnel (Steer),
// where the chain's ingress leg rides the same tunnel (legs.go). The manager's
// renderer decides both, for an offloaded chain, a handoff's detour and a head
// placed away from its client alike.
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
