// GNFC offload orchestration (reference [2] of the demo paper): the
// Manager can move a client's entire chain set from its edge station to a
// cloud site. Traffic then detours edge→cloud→backhaul through a
// provisioned tunnel. The payoff, quantified in experiment E8: once
// offloaded, roaming costs only a steering update — the chains never move
// again — at the price of a WAN round-trip on every packet.
package manager

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"gnf/internal/agent"
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

// OffloadClient moves every chain of the client to the cloud site and
// detours the client's traffic through the tunnel (reanchor).
func (m *Manager) OffloadClient(client, site string) (OffloadReport, error) {
	return m.reanchor(client, site)
}

// RecallClient moves an offloaded client's chains back to its current edge
// station (reanchor): its traffic snaps back through the fresh local chains.
func (m *Manager) RecallClient(client string) (OffloadReport, error) {
	return m.reanchor(client, "")
}

// reanchor moves all of one client's chains to the cloud site — an offload —
// or, with site "", back to the client's edge station — a recall — as one
// transaction: each chain moves deferred, make-before-break with state (on
// the site with its ingress leg already on the tunnel to the client), then
// the flip — a render with every chain landed — re-points the client's
// traffic, and only then do the sources go. A failure anywhere unwinds every
// chain already moved and renders the table as it stands: the client keeps
// the complete old set, never a mixture, and its record is untouched.
func (m *Manager) reanchor(client, site string) (OffloadReport, error) {
	rep := OffloadReport{Client: client, Site: site, Recall: site == ""}
	rec := m.clients.get(client)
	if rec == nil {
		return rep, fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	rec.mu.Lock()
	station, offload, mac, ip := rec.station, rec.offload, rec.mac, rec.ip
	specs := slices.SortedFunc(maps.Values(rec.chains), func(a, b ChainSpec) int { return strings.Compare(a.Name, b.Name) })
	rec.mu.Unlock()
	from, to, verb := station, site, "offload"
	if rep.Recall {
		rep.Site, from, to, verb = offload, offload, station, "recall"
	}
	switch {
	case !rep.Recall && offload != "":
		return rep, fmt.Errorf("%w: %s on %s", ErrOffloaded, client, offload)
	case rep.Recall && offload == "":
		return rep, fmt.Errorf("%w: %s", ErrNotOffloaded, client)
	case station == "":
		return rep, fmt.Errorf("%w: %s", ErrNotAttached, client)
	}
	if !rep.Recall {
		// Split chains already pin their segments per affinity; silently
		// collapsing one onto a cloud site would discard that layout. Refuse
		// loudly — the operator detaches and re-attaches without affinities
		// if cloud hosting is really wanted.
		for _, spec := range specs {
			if len(SegmentsOf(spec)) > 1 {
				return rep, fmt.Errorf("manager: cannot offload %s: chain %s is split across stations by affinity", client, spec.Name)
			}
		}
		cloud, err := m.agentFor(site)
		if err != nil {
			return rep, err
		}
		if !cloud.Cloud {
			return rep, fmt.Errorf("%w: %s", ErrNotCloud, site)
		}
	}
	if _, err := m.agentFor(station); err != nil {
		return rep, err
	}

	// State is preserved via stop-and-copy for both the stateful and live
	// strategies: pre-copy assumes the target can be staged behind the
	// client's steering, which a tunnelled remote deployment cannot until
	// the flip, so live degrades to one-shot copy here.
	strategy := m.state().strategy
	if strategy == StrategyLive {
		strategy = StrategyStateful
	}
	sp := m.tracer.StartSpan(trace.Context{}, "manager.migrate_request")
	sp.SetAttr("client", client)
	var moved []*pendingMove
	var seeds []landed
	fail := func(err error) (OffloadReport, error) {
		for i := len(moved) - 1; i >= 0; i-- {
			moved[i].undo()
		}
		m.render(sp.Context(), client, rec)
		sp.End(err)
		return rep, fmt.Errorf("manager: %s %w", verb, err)
	}
	for _, spec := range specs {
		p := movePlan{rec: rec, dep: deployment{chain: spec.Name}, from: from, to: to,
			strategy: strategy, deferred: true, deploy: agent.DeploySpec{Chain: spec.Name, Client: client, Functions: spec.Functions}}
		if !rep.Recall {
			p.deploy.ClientMAC, p.deploy.ClientIP, p.deploy.Ingress = mac, ip, agent.Leg{Station: station}
		}
		mig, pending := m.move(sp.Context(), p)
		rep.Chains = append(rep.Chains, mig)
		if mig.Err != "" {
			return fail(fmt.Errorf("%s/%s: %s", client, mig.Chain, mig.Err))
		}
		moved = append(moved, pending)
		seeds = append(seeds, landed{p.dep, placement{to, mig.pooled}, p.deploy.Ingress.Station})
	}
	if err := m.render(sp.Context(), client, rec, seeds...); err != nil {
		return fail(err)
	}
	for _, pending := range moved {
		pending.commit()
	}
	sp.End(nil)

	rec.mu.Lock()
	rec.offload = site
	for _, s := range seeds {
		rec.place(s.dep, s.pl.station, s.pl.pooled)
	}
	rec.mu.Unlock()
	for _, mig := range rep.Chains {
		m.recordMigration(mig)
	}
	return rep, nil
}

// AutoOffload scans for resource hotspots (§3: the Manager detects
// "resource-hotspots") and offloads every chain-bearing client of each hot
// edge station to the site chosen by the placement policy (CloudFirst
// recommended). It returns one report per offloaded client.
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
			site, ok := m.place(PlacementHint{Client: client, AllowCloud: true, ClientAt: station}, station)
			if !ok {
				return reports, fmt.Errorf("%w: no offload target for %s", ErrUnknownStation, client)
			}
			isCloud := false
			if h, ok := m.state().agents[site]; ok {
				isCloud = h.Cloud
			}
			if !isCloud {
				continue // policy picked an edge station; AutoOffload only bursts to cloud
			}
			rep, err := m.OffloadClient(client, site)
			reports = append(reports, rep)
			if err != nil {
				return reports, err
			}
		}
	}
	return reports, nil
}
