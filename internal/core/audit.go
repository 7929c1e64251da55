// Invariant auditing: a running System can cross-check the Manager's
// placement records against what every Agent actually hosts. The paper's
// roaming story rests on three properties — a client's chains follow it
// (convergence), a chain never runs twice (no duplicates), and nothing is
// left behind (no leaks) — and the scenario conformance suite asserts them
// after every run.
package core

import (
	"fmt"
	"sort"

	"gnf/internal/agent"
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
	// ViolationConvergence: an attached client's chain is deployed away
	// from the station serving the client (and the client is not
	// offloaded to a cloud site).
	ViolationConvergence = "convergence"
	// ViolationDisabled: a chain that should be forwarding is disabled.
	// Scenarios exercising activation schedules expect this one.
	ViolationDisabled = "disabled-chain"
	// ViolationStrayDetour: a station still detours into a tunnel the traffic
	// of a client the manager does not record as offloaded. A live handoff
	// installs such a detour for the length of its move; after the client's
	// moves have drained none may remain.
	ViolationStrayDetour = "stray-detour"
	// ViolationLegMismatch: a hosted deployment's live legs are not the ones
	// the manager's placements imply — segment i's ingress leg names segment
	// i-1 where that is placed, its egress leg segment i+1, an offloaded
	// chain's ingress leg is the client's station, and everything else is on
	// its own station's edge. It catches the chain half of a leftover detour
	// and a botched re-splice alike.
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
// every attached client is served at its current station (or its cloud
// site when offloaded).
func (s *System) Audit() []Violation {
	var out []Violation

	// What each agent actually hosts, keyed by (client, chain): chain
	// names are only unique per client, and the agents' chain status
	// carries the owning client, so same-named chains of different
	// clients never alias each other here.
	type hosting struct {
		station         string
		enabled         bool
		ingress, egress agent.Leg
	}
	s.mu.Lock()
	nodes := make(map[topology.StationID]*stationNode, len(s.stations))
	for id, sn := range s.stations {
		nodes[id] = sn
	}
	s.mu.Unlock()
	hostedOn := make(map[[2]string][]hosting) // {client, chain} -> hostings
	for id, sn := range nodes {
		rep := sn.ag.Report()
		for _, client := range rep.Detours {
			if s.Manager.Offloaded(client) == "" {
				out = append(out, Violation{ViolationStrayDetour,
					fmt.Sprintf("station %s detours client %s, which is not offloaded", id, client)})
			}
		}
		for _, cs := range rep.Chains {
			key := [2]string{cs.Client, cs.Chain}
			hostedOn[key] = append(hostedOn[key], hosting{string(id), cs.Enabled, cs.Ingress, cs.Egress})
		}
	}
	for _, hs := range hostedOn {
		sort.Slice(hs, func(i, j int) bool { return hs[i].station < hs[j].station })
	}

	// The manager's view.
	placements := s.Manager.Placements()
	placedAt := make(map[[2]string]string, len(placements))
	for _, pl := range placements {
		placedAt[[2]string{pl.Client, pl.Chain}] = pl.Station
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
		var here *hosting
		for i, h := range hostedOn[[2]string{pl.Client, pl.Chain}] {
			if h.station == pl.Station {
				here = &hostedOn[[2]string{pl.Client, pl.Chain}][i]
				break
			}
		}
		if here == nil {
			out = append(out, Violation{ViolationMissing,
				fmt.Sprintf("chain %s/%s placed on %s but not hosted there", pl.Client, pl.Chain, pl.Station)})
			continue
		}
		if !here.enabled {
			out = append(out, Violation{ViolationDisabled,
				fmt.Sprintf("chain %s/%s on %s is not forwarding", pl.Client, pl.Chain, pl.Station)})
		}
		st, attached := s.Manager.ClientStation(pl.Client)
		// Legs: a split chain's are its neighbours' placements. An offloaded
		// chain's ingress leg follows the client, and keeps pointing at the
		// station it last saw while the client is out of coverage.
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
		if pl.Offload != "" && pl.Station == pl.Offload {
			wantIn = agent.Leg{Station: st}
			if !attached {
				wantIn = here.ingress
			}
		}
		if here.ingress != wantIn || here.egress != wantOut {
			out = append(out, Violation{ViolationLegMismatch,
				fmt.Sprintf("chain %s/%s on %s has legs %+v / %+v, its placements imply %+v / %+v",
					pl.Client, pl.Chain, pl.Station, here.ingress, here.egress, wantIn, wantOut)})
		}
		// Convergence: an attached client is served where it is attached —
		// at its station, or at its cloud site with the traffic detour
		// installed at the station (offload). Anchored segments of split
		// chains (Segment > 0) are *meant* to sit away from the client;
		// only the head segment must converge.
		if pl.Segment != 0 {
			continue
		}
		if !attached {
			continue // chains may wait at the last station while out of coverage
		}
		want := st
		if pl.Offload != "" {
			want = pl.Offload
		}
		if pl.Station != want {
			out = append(out, Violation{ViolationConvergence,
				fmt.Sprintf("client %s at %s but chain %s deployed on %s", pl.Client, st, pl.Chain, pl.Station)})
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
