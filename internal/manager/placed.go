// Placement: one table and one rule (DESIGN.md, "Placement: one rule, one
// table"). A chain is a list of one or more segments (SegmentsOf), each its
// own deployment. clientRec.placed records where every deployment runs and
// rec.place is its only writer; wantAt says where one belongs in steady state.
// What displaces a deployment from there (an evacuated or dead station, a
// violated QoS budget) still asks the placement policy, via placementHint.
package manager

import (
	"fmt"

	"gnf/internal/agent"
	"gnf/internal/topology"
)

// deployment names one segment of one of a client's chains.
type deployment struct {
	chain string
	seg   int
}

// name is what agents and reports know the deployment by: the chain's own
// name for segment 0, "chain#i" behind it.
func (d deployment) name() string { return agent.SegmentDeployName(d.chain, d.seg) }

// placement is one row of a client's placement table.
type placement struct {
	station string
	// pooled marks an attachment to the station's shared instance
	// (DeployResult.Shared). The pool steers every sharer itself, so such a
	// deployment has no client leg of its own that a handoff could point back
	// at the client.
	pooled bool
}

// place records that dep now runs at station, as an attachment to a shared
// instance or on containers of its own; station "" says it runs nowhere and
// drops the row. It may lag the client's station while a move is in flight.
// Callers hold rec.mu.
func (rec *clientRec) place(dep deployment, station string, pooled bool) {
	if station == "" {
		delete(rec.placed, dep)
		return
	}
	rec.placed[dep] = placement{station: station, pooled: pooled}
}

// at reads where dep runs ("" = nowhere). Callers hold rec.mu.
func (rec *clientRec) at(dep deployment) string { return rec.placed[dep].station }

// eachPlaced visits every row of every client's placement table, with that
// client's record locked.
func (m *Manager) eachPlaced(fn func(client string, rec *clientRec, dep deployment, at string)) {
	m.clients.forEach(func(client string, rec *clientRec) {
		rec.mu.Lock()
		for dep, pl := range rec.placed {
			fn(client, rec, dep, pl.station)
		}
		rec.mu.Unlock()
	})
}

// displaced is one deployment that has to leave the station it runs on.
type displaced struct {
	client string
	rec    *clientRec
	dep    deployment
	spec   ChainSpec
}

// deploymentsOn lists what the placement tables put on station.
func (m *Manager) deploymentsOn(station string) []displaced {
	var out []displaced
	m.eachPlaced(func(client string, rec *clientRec, dep deployment, at string) {
		if at == station {
			out = append(out, displaced{client: client, rec: rec, dep: dep, spec: rec.chains[dep.chain]})
		}
	})
	return out
}

// whereabouts is the part of a client's record the placement rule reads.
type whereabouts struct {
	// station is where the client is associated ("" = out of coverage);
	// offload the cloud site hosting its chains ("" = served at the edge).
	station, offload string
}

// whereabouts snapshots the rule's view of the client. Callers hold rec.mu.
func (rec *clientRec) whereabouts() whereabouts {
	return whereabouts{station: rec.station, offload: rec.offload}
}

// budgeted reports whether the QoS stay-rule governs the chain: it carries a
// MaxRTT budget, an RTT-aware policy with a topology graph is installed, and
// it is unsplit — a split chain's head strictly chases its client, or the
// access leg would strand.
func budgeted(st *controlState, spec ChainSpec) bool {
	_, aware := st.placement.(rttAware)
	return aware && st.topo != nil && spec.MaxRTT() > 0 && len(SegmentsOf(spec)) < 2
}

// wantAt is the placement rule: the station segment seg of the chain belongs
// on in steady state, for a client at cl, given that it runs at `at` now
// ("" = nowhere yet).
//
//   - An anchored segment (seg > 0) belongs on its anchor wherever the
//     client is: a "cloud-ok" one on the cloud anchor when a cloud site is
//     connected, every other on the aggregation hub.
//   - The head of an offloaded client's chain belongs on the offload site.
//   - A head whose client is out of coverage stays where it is.
//   - A budgeted chain stays where it is while that station still meets the
//     chain's MaxRTT from the client's station (the QoS stay-rule).
//   - Every other head belongs on the client's station — §2's roaming
//     contract.
//
// The error is ErrUnknownStation when no station can anchor the segment.
func wantAt(st *controlState, cl whereabouts, spec ChainSpec, seg int, at string) (string, error) {
	switch {
	case seg > 0:
		segs := SegmentsOf(spec)
		if seg >= len(segs) {
			return "", fmt.Errorf("manager: %s has no segment %d", spec.Name, seg)
		}
		if segs[seg].Affinity == AffinityCloudOK {
			if site, ok := cloudAnchor(st); ok {
				return site, nil
			}
		}
		hub, ok := aggregationHub(st)
		if !ok {
			return "", fmt.Errorf("%w: no station to anchor segment %d", ErrUnknownStation, seg)
		}
		return hub, nil
	case cl.offload != "":
		return cl.offload, nil
	case cl.station == "":
		return at, nil
	case at != "" && at != cl.station && budgeted(st, spec) && withinBudget(st.topo, spec, cl.station, at):
		return at, nil
	}
	return cl.station, nil
}

// ChainSettled reports whether a chain whose head runs at `at` is where the
// placement rule puts it for a client at clientAt whose chains are offloaded
// to offload ("" = served at the edge). The reconciler uses this to tell
// drifted chains (orphans, failed migrations) from chains that are
// legitimately elsewhere.
func (m *Manager) ChainSettled(spec ChainSpec, clientAt, offload, at string) bool {
	want, err := wantAt(m.state(), whereabouts{station: clientAt, offload: offload}, spec, 0, at)
	return err == nil && want == at
}

// withinBudget reports whether hosting the chain at `at` keeps its
// predicted RTT from the client's station within the chain's MaxRTT
// budget, over the given topology graph.
func withinBudget(topo *topology.Graph, spec ChainSpec, clientAt, at string) bool {
	rtt, ok := topo.RTT(topology.StationID(clientAt), topology.StationID(at))
	return ok && rtt <= spec.MaxRTT()
}

// placementHint is what every displacement decision tells the policy about
// the chain it is placing; callers add Prefer where the client's own station
// is a candidate.
func placementHint(client string, spec ChainSpec, clientAt string) PlacementHint {
	return PlacementHint{
		Client: client, Chain: spec.Name,
		ConfigHashes: chainConfigHashes(spec),
		ClientAt:     clientAt,
		MaxRTT:       spec.MaxRTT(),
	}
}
