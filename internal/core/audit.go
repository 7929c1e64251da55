// Invariant auditing: a running System can cross-check the Manager's
// placement records against what every Agent actually hosts and steers. The
// paper's roaming story rests on three properties — a client's traffic
// reaches its chains wherever it is attached (convergence), a chain never
// runs twice (no duplicates), and nothing is left behind (no leaks) — and the
// scenario conformance suite asserts them after every run.
package core

import (
	"fmt"
	"sort"

	"gnf/internal/agent"
	"gnf/internal/netem"
	"gnf/internal/topology"
)

// Violation kinds reported by Audit.
const (
	// ViolationDuplicate: one chain deployed on more than one station.
	ViolationDuplicate = "duplicate-deployment"
	// ViolationLeak: an agent hosts a chain the manager does not place
	// there (orphaned by a failed migration or missed removal).
	ViolationLeak = "chain-leak"
	// ViolationMissing: the manager believes a chain is deployed on a
	// station whose agent does not host it.
	ViolationMissing = "missing-deployment"
	// ViolationConvergence: an attached client's traffic does not reach one
	// of its chains' heads: the head runs neither at the client's station nor
	// where that station steers the client, on an ingress leg riding the
	// tunnel back.
	ViolationConvergence = "convergence"
	// ViolationDisabled: a chain that should be forwarding is disabled.
	// Scenarios exercising activation schedules expect this one.
	ViolationDisabled = "disabled-chain"
	// ViolationStrayDetour: a station steers a client into a tunnel where the
	// steering rule would not: anywhere but the client's station, toward
	// anywhere but the one station every exclusive head of its runs on, or at
	// all while one of its heads runs at its station. A handoff's detour is
	// the rule's for the length of its move; once the moves have drained it
	// is gone.
	ViolationStrayDetour = "stray-detour"
	// ViolationLegMismatch: a hosted deployment's live legs are not the ones
	// the manager's placements imply — segment i's ingress leg names segment
	// i-1 where that is placed, its egress leg segment i+1, a head's ingress
	// leg is the tunnel to the client's station where the steering rule
	// steers the client to it (and, while the client is out of coverage,
	// whatever it was), and everything else is on its own station's edge. It
	// catches the chain half of a leftover detour and a botched re-splice
	// alike.
	ViolationLegMismatch = "leg-mismatch"
)

// Violation is one invariant breach found by Audit.
type Violation struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Audit cross-checks manager placement state against the agents' actual
// deployments and returns every invariant violation found, sorted for
// stable output. An empty result means the deployment is consistent:
// every chain runs exactly once, exactly where the manager placed it, and
// every attached client's traffic reaches each of its heads — at its current
// station, or over the one steer the rule puts at that station.
func (s *System) Audit() []Violation {
	var out []Violation

	// What each agent actually hosts, keyed by (client, chain): chain
	// names are only unique per client, and the agents' chain status
	// carries the owning client, so same-named chains of different
	// clients never alias each other here.
	type hosting struct {
		station         string
		enabled, shared bool
		ingress, egress agent.Leg
	}
	s.mu.Lock()
	nodes := make(map[topology.StationID]*stationNode, len(s.stations))
	for id, sn := range s.stations {
		nodes[id] = sn
	}
	s.mu.Unlock()
	hostedOn := make(map[[2]string][]hosting)    // {client, chain} -> hostings
	steers := make(map[string]map[string]string) // client -> station -> via
	for id, sn := range nodes {
		rep := sn.ag.Report()
		for _, client := range rep.Detours {
			if steers[client] == nil {
				steers[client] = make(map[string]string)
			}
			steers[client][string(id)] = detourVia(sn.ag, client)
		}
		for _, cs := range rep.Chains {
			key := [2]string{cs.Client, cs.Chain}
			hostedOn[key] = append(hostedOn[key], hosting{string(id), cs.Enabled, cs.Shared, cs.Ingress, cs.Egress})
		}
	}
	for _, hs := range hostedOn {
		sort.Slice(hs, func(i, j int) bool { return hs[i].station < hs[j].station })
	}
	// hostedAt finds the copy of a client's deployment on one station.
	hostedAt := func(client, chain, station string) *hosting {
		for i, h := range hostedOn[[2]string{client, chain}] {
			if h.station == station {
				return &hostedOn[[2]string{client, chain}][i]
			}
		}
		return nil
	}

	// The manager's view.
	placements := s.Manager.Placements()
	placedAt := make(map[[2]string]string, len(placements))
	heads := make(map[string][]hosting) // client -> its heads where they are placed
	for _, pl := range placements {
		placedAt[[2]string{pl.Client, pl.Chain}] = pl.Station
		if h := hostedAt(pl.Client, pl.Chain, pl.Station); h != nil && pl.Segment == 0 {
			heads[pl.Client] = append(heads[pl.Client], *h)
		}
	}
	// The steering rule (the manager's steerRule): an attached client is
	// steered via the one station every exclusive head of its runs on, when
	// none runs at its station.
	rule := func(client string) (at, via string) {
		at, attached := s.Manager.ClientStation(client)
		if !attached {
			return "", ""
		}
		for _, h := range heads[client] {
			switch {
			case h.shared && h.station != at:
			case h.station == at || (via != "" && via != h.station):
				return at, ""
			default:
				via = h.station
			}
		}
		return at, via
	}
	for client, byStation := range steers {
		at, want := rule(client)
		for station, got := range byStation {
			if station != at || got != want {
				out = append(out, Violation{ViolationStrayDetour,
					fmt.Sprintf("station %s steers client %s toward %q; the rule steers it at %q toward %q", station, client, got, at, want)})
			}
		}
	}

	for key, hs := range hostedOn {
		client, chain := key[0], key[1]
		if len(hs) > 1 {
			sts := make([]string, 0, len(hs))
			for _, h := range hs {
				sts = append(sts, h.station)
			}
			out = append(out, Violation{ViolationDuplicate,
				fmt.Sprintf("chain %s/%s deployed on %v", client, chain, sts)})
		}
		want, known := placedAt[key]
		for _, h := range hs {
			if !known || want != h.station {
				out = append(out, Violation{ViolationLeak,
					fmt.Sprintf("chain %s/%s hosted on %s but placed on %q", client, chain, h.station, want)})
			}
		}
	}

	for _, pl := range placements {
		if pl.Station == "" {
			continue // never deployed (client attached nowhere yet)
		}
		if _, ok := nodes[topology.StationID(pl.Station)]; !ok {
			out = append(out, Violation{ViolationMissing,
				fmt.Sprintf("chain %s/%s placed on unknown station %s", pl.Client, pl.Chain, pl.Station)})
			continue
		}
		here := hostedAt(pl.Client, pl.Chain, pl.Station)
		if here == nil {
			out = append(out, Violation{ViolationMissing,
				fmt.Sprintf("chain %s/%s placed on %s but not hosted there", pl.Client, pl.Chain, pl.Station)})
			continue
		}
		if !here.enabled {
			out = append(out, Violation{ViolationDisabled,
				fmt.Sprintf("chain %s/%s on %s is not forwarding", pl.Client, pl.Chain, pl.Station)})
		}
		// Legs: a split chain's are its neighbours' placements; a head's
		// ingress leg is the rule's, and keeps pointing where it did while
		// the client is out of coverage.
		base, _ := agent.ParseSegmentName(pl.Chain)
		neighbour := func(seg int) agent.Leg {
			name := agent.SegmentDeployName(base, seg)
			at, placed := placedAt[[2]string{pl.Client, name}]
			if seg < 0 || !placed {
				return agent.Leg{}
			}
			return agent.Leg{Station: at, Peer: name}
		}
		wantIn, wantOut := neighbour(pl.Segment-1), neighbour(pl.Segment+1)
		st, steerVia := rule(pl.Client)
		switch {
		case pl.Segment != 0:
		case st == "":
			wantIn = here.ingress
		case !here.shared && pl.Station == steerVia:
			wantIn = agent.Leg{Station: st}
		}
		if here.ingress != wantIn || here.egress != wantOut {
			out = append(out, Violation{ViolationLegMismatch,
				fmt.Sprintf("chain %s/%s on %s has legs %+v / %+v, its placements imply %+v / %+v",
					pl.Client, pl.Chain, pl.Station, here.ingress, here.egress, wantIn, wantOut)})
		}
		// Convergence: an attached client's traffic reaches each head — at
		// its station, or steered there onto a tunnel leg back. Anchored
		// segments of split chains (Segment > 0) are *meant* to sit away from
		// the client, fed by their head; chains may wait at the last station
		// while the client is out of coverage.
		if pl.Segment != 0 || st == "" || pl.Station == st {
			continue
		}
		if steers[pl.Client][st] != pl.Station || here.ingress != (agent.Leg{Station: st}) {
			out = append(out, Violation{ViolationConvergence,
				fmt.Sprintf("client %s at %s but chain %s runs on %s, out of its traffic's reach", pl.Client, st, pl.Chain, pl.Station)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// detourVia reads where the agent's switch steers the client: the far end of
// the tunnel its access port is redirected into ("" when it is not).
func detourVia(ag *agent.Agent, client string) string {
	_, _, port, err := ag.Client(topology.ClientID(client))
	if err != nil {
		return ""
	}
	tunnels := make(map[netem.PortID]string)
	for _, peer := range ag.Tunnels() {
		if p, ok := ag.TunnelTo(peer); ok {
			tunnels[p] = string(peer)
		}
	}
	for _, r := range ag.Switch().Rules() {
		if r.Action == netem.ActionRedirect && r.Match.InPort != nil && *r.Match.InPort == port && r.Match.SrcMAC == nil {
			if peer, ok := tunnels[r.OutPort]; ok {
				return peer
			}
		}
	}
	return ""
}
