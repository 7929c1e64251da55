// Placement: one table and its two rules (DESIGN.md, "Placement: one rule,
// one table"). A chain is a list of one or more segments (SegmentsOf), each
// its own deployment. clientRec.placed records where every deployment runs and
// rec.place is its only writer; wantAt says where one belongs, steerRule how
// the client's traffic reaches its heads wherever they run (render sends it).
// What displaces a deployment (an evacuated or dead station, a hotspot) asks
// the placement rule instead (pick).
package manager

import (
	"fmt"
	"maps"
	"sort"

	"gnf/internal/agent"
	"gnf/internal/topology"
	"gnf/internal/trace"
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
// MaxRTT budget, a topology graph is installed, and it is unsplit — a split
// chain's head strictly chases its client, or the access leg would strand.
func budgeted(st *controlState, spec ChainSpec) bool {
	return st.topo != nil && spec.MaxRTT() > 0 && len(SegmentsOf(spec)) < 2
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

// rendering is where a client's traffic enters its chains: the steer station
// at holds toward via ("" = none), and the station each exclusive head's
// ingress leg rides the tunnel to.
type rendering struct {
	at, via string
	legs    map[deployment]string
}

// steerRule is how a client at station x reaches its heads, the segment-0
// rows of its placement table; last is what the rule said before.
//
//   - Out of coverage (x == ""): last stands.
//   - A head at x: no steer, every leg on its edge.
//   - No head at x, and every exclusive head at one station y: x steers the
//     client via y, and those heads' ingress legs ride the tunnel to x.
//   - Anything else (pooled heads alone away from x — their legs stay on
//     their edge, agent.ErrPooledLegs — or exclusive heads on two stations):
//     no steer, every leg on its edge.
func steerRule(x string, placed map[deployment]placement, last rendering) rendering {
	if x == "" {
		return last
	}
	out := rendering{legs: make(map[deployment]string)}
	for dep, pl := range placed {
		switch {
		case dep.seg > 0 || (pl.pooled && pl.station != x):
		case pl.station == x || (out.via != "" && out.via != pl.station):
			return rendering{}
		default:
			out.at, out.via, out.legs[dep] = x, pl.station, x
		}
	}
	return out
}

// landed is a copy brought up ahead of the table, its ingress leg on the tunnel to ingress.
type landed struct {
	dep     deployment
	pl      placement
	ingress string
}

// wanted is what steerRule says for the client's station and table as landed
// copies amend them, with the table and the last rendering it read. A
// station without an agent is out of coverage. Callers hold rec.mu.
func (m *Manager) wanted(rec *clientRec, seeds ...landed) (placed map[deployment]placement, last, want rendering) {
	placed, last = maps.Clone(rec.placed), rec.rendered
	last.legs = maps.Clone(last.legs)
	x := rec.station
	if _, err := m.agentFor(x); err != nil {
		x = ""
	}
	for _, s := range seeds {
		if placed[s.dep] = s.pl; s.dep.seg == 0 {
			last.legs[s.dep] = s.ingress
		}
	}
	return placed, last, steerRule(x, placed, last)
}

// render sends the agents what the rule wants where it differs from the last
// rendering, best effort and in the order no frame enters a tunnel before its
// far end expects it — old steer out, legs re-pointed, new steer in — and
// records what took. A new steer is a detour: a manager.detour span, a detour
// event, a migration.detour_ms sample, and for an offloaded client a steer
// migration. A station without an agent took its steer and its heads' legs
// along. Callers hold rec.migMu.
func (m *Manager) render(tctx trace.Context, client string, rec *clientRec, seeds ...landed) error {
	rec.mu.Lock()
	since, site := rec.arrived, rec.offload
	placed, last, want := m.wanted(rec, seeds...)
	rec.mu.Unlock()
	install := want.via != "" && (want.at != last.at || want.via != last.via)
	drop := last.at != "" && last.at != want.at
	done := last
	done.legs = make(map[deployment]string)
	var moves []deployment
	for dep := range placed {
		if done.legs[dep] = last.legs[dep]; want.legs[dep] != last.legs[dep] {
			moves = append(moves, dep)
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].chain < moves[j].chain })
	ctx, sp := tctx, (*trace.Span)(nil)
	if install {
		sp = m.tracer.Child(tctx, "manager.detour")
		ctx = sp.Context()
	}
	err := func() error {
		if drop {
			if h, err := m.agentFor(last.at); err == nil {
				if err := h.callT(ctx, agent.MethodUnsteer, agent.UnsteerSpec{Client: client}, nil); err != nil {
					return err
				}
			}
			done.at, done.via = "", ""
		}
		if err := m.ensureTunnel(want.at, want.via); err != nil {
			return err
		}
		for _, dep := range moves {
			if h, err := m.agentFor(placed[dep].station); err == nil {
				if err := h.callT(ctx, agent.MethodRetarget, agent.RetargetSpec{Chain: dep.name(), Ingress: &agent.Leg{Station: want.legs[dep]}}, nil); err != nil {
					return err
				}
			}
			done.legs[dep] = want.legs[dep]
		}
		if !install {
			return nil
		}
		h, err := m.agentFor(want.at)
		if err == nil {
			if err = h.steer(ctx, agent.SteerSpec{Client: client, Via: want.via}); err == nil {
				done.at, done.via = want.at, want.via
			}
		}
		return err
	}()
	rec.mu.Lock()
	if rec.rendered.at != last.at && done.at == last.at {
		done.at, done.via = "", "" // a disconnect took the steer meanwhile
	}
	rec.rendered = done
	rec.mu.Unlock()
	if install {
		sp.End(err)
		ev := trace.Event{Type: trace.EventDetour, Subject: client, Station: want.at, Detail: "via=" + want.via, TraceID: ctx.TraceID}
		if err != nil {
			ev.Err = err.Error()
		} else {
			m.metrics.Histogram("migration.detour_ms", downtimeBucketsMs...).Observe(float64(m.clk.Since(since).Microseconds()) / 1000)
		}
		m.journal.Append(ev)
		if site != "" {
			m.recordMigration(MigrationReport{Client: client, From: last.at, To: want.at, Strategy: StrategySteer, Err: ev.Err})
		}
	}
	return err
}
