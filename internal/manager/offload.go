// GNFC offload orchestration (reference [2] of the demo paper): the
// Manager can move a client's chain heads — whole chains, and the head of a
// split one — from its edge station to a cloud site. Traffic then detours
// edge→cloud through a provisioned tunnel. The payoff, quantified in
// experiment E8: once offloaded, roaming costs only a steering update — the
// chains never move again — at the price of a WAN round-trip on every packet.
package manager

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"gnf/internal/trace"
)

// Offload errors.
var (
	ErrNotCloud     = errors.New("manager: offload target is not a cloud site")
	ErrOffloaded    = errors.New("manager: client already offloaded")
	ErrNotOffloaded = errors.New("manager: client is not offloaded")
)

// OffloadReport records one client offload or recall.
type OffloadReport struct {
	Client string            `json:"client"`
	Site   string            `json:"site"`
	Chains []MigrationReport `json:"chains"`
	// Recall is true when this reports a cloud→edge move.
	Recall bool `json:"recall,omitempty"`
}

// Offloaded reports the cloud site hosting the client's chains ("" when
// the client is served at the edge).
func (m *Manager) Offloaded(client string) string {
	rec := m.clients.get(client)
	if rec == nil {
		return ""
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.offload
}

// OffloadClient moves the client's chain heads to the cloud site, where its
// traffic reaches them through the tunnel (reanchor).
func (m *Manager) OffloadClient(client, site string) (OffloadReport, error) {
	return m.reanchor(client, site)
}

// RecallClient moves an offloaded client's chain heads back to its edge
// station (reanchor).
func (m *Manager) RecallClient(client string) (OffloadReport, error) {
	return m.reanchor(client, "")
}

// reanchor offloads the client to the cloud site or, with site "", recalls
// it: every deployment whose wantAt changes with the offload site moves, with
// state, as one transaction (moveAll) — a split chain's head alone, which the
// move re-splices segment 1 onto.
func (m *Manager) reanchor(client, site string) (OffloadReport, error) {
	rep := OffloadReport{Client: client, Site: site, Recall: site == ""}
	rec := m.clients.get(client)
	if rec == nil {
		return rep, fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	rec.mu.Lock()
	cl := rec.whereabouts()
	rec.mu.Unlock()
	verb := "offload"
	if rep.Recall {
		rep.Site, verb = cl.offload, "recall"
	}
	switch {
	case !rep.Recall && cl.offload != "":
		return rep, fmt.Errorf("%w: %s on %s", ErrOffloaded, client, cl.offload)
	case rep.Recall && cl.offload == "":
		return rep, fmt.Errorf("%w: %s", ErrNotOffloaded, client)
	case cl.station == "":
		return rep, fmt.Errorf("%w: %s", ErrNotAttached, client)
	}
	if !rep.Recall {
		cloud, err := m.agentFor(site)
		if err != nil {
			return rep, err
		}
		if !cloud.Cloud {
			return rep, fmt.Errorf("%w: %s", ErrNotCloud, site)
		}
	}
	if _, err := m.agentFor(cl.station); err != nil {
		return rep, err
	}

	st := m.state()
	next := whereabouts{station: cl.station, offload: site}
	var hops []hop
	rec.mu.Lock()
	for dep, pl := range rec.placed {
		spec := rec.chains[dep.chain]
		was, _ := wantAt(st, cl, spec, dep.seg, pl.station)
		if want, err := wantAt(st, next, spec, dep.seg, pl.station); err == nil && want != was {
			hops = append(hops, hop{dep, pl.station, want})
		}
	}
	rec.mu.Unlock()
	sort.Slice(hops, func(i, j int) bool { return hops[i].dep.name() < hops[j].dep.name() })

	// State moves with zero pre-copy rounds under both state-carrying
	// strategies: pre-copy assumes the target can be staged behind the
	// client's steering, which a tunnelled remote deployment cannot until
	// the flip.
	strategy := st.strategy
	if strategy == StrategyLive {
		strategy = StrategyStateful
	}
	sp := m.tracer.StartSpan(trace.Context{}, "manager.migrate_request")
	sp.SetAttr("client", client)
	var err error
	rep.Chains, err = m.moveAll(sp.Context(), client, rec, hops, strategy)
	sp.End(err)
	if err != nil {
		return rep, fmt.Errorf("manager: %s %w", verb, err)
	}
	rec.mu.Lock()
	rec.offload = site
	rec.mu.Unlock()
	for _, mig := range rep.Chains {
		m.recordMigration(mig)
	}
	return rep, nil
}

// AutoOffload scans for resource hotspots (§3: the Manager detects
// "resource-hotspots") and offloads every chain-bearing client of each hot
// edge station to the connected cloud site the placement rule picks. It
// returns one report per offloaded client.
func (m *Manager) AutoOffload() ([]OffloadReport, error) {
	hot := m.Hotspots()
	var reports []OffloadReport
	for _, station := range hot {
		st := m.state()
		if h, ok := st.agents[station]; !ok || h.Cloud {
			continue // cloud sites don't offload further
		}
		var clients []string
		m.clients.forEach(func(client string, rec *clientRec) {
			rec.mu.Lock()
			if rec.station == station && rec.offload == "" && len(rec.chains) > 0 {
				clients = append(clients, client)
			}
			rec.mu.Unlock()
		})
		sort.Strings(clients)

		for _, client := range clients {
			sites := slices.DeleteFunc(m.StationInfos(), func(si StationInfo) bool { return !si.Cloud })
			c, ok := m.place(sites, placementHint{allowCloud: true, clientAt: station})
			if !ok {
				return reports, fmt.Errorf("%w: no cloud site to offload %s to", ErrUnknownStation, client)
			}
			rep, err := m.OffloadClient(client, c.station)
			reports = append(reports, rep)
			if err != nil {
				return reports, err
			}
		}
	}
	return reports, nil
}
