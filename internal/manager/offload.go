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
	"sort"

	"gnf/internal/agent"
	"gnf/internal/clock"
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
// detours the client's traffic through the tunnel. Chains move
// make-before-break with state transfer (reanchor): each is deployed
// (disabled) on the site, frozen at the edge, checkpointed, restored and
// enabled; the detour flips once every chain is ready, and only then are
// the edge copies removed.
func (m *Manager) OffloadClient(client, site string) (OffloadReport, error) {
	rep := OffloadReport{Client: client, Site: site}

	rec := m.clients.get(client)
	if rec == nil {
		return rep, fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}

	rec.migMu.Lock()
	defer rec.migMu.Unlock()

	rec.mu.Lock()
	station := rec.station
	site0 := rec.offload
	mac, ip := rec.mac, rec.ip
	specs := sortedChains(rec)
	rec.mu.Unlock()
	if site0 != "" {
		return rep, fmt.Errorf("%w: %s on %s", ErrOffloaded, client, site0)
	}
	if station == "" {
		return rep, fmt.Errorf("%w: %s", ErrNotAttached, client)
	}
	// Split chains already pin their segments per affinity; silently
	// collapsing one onto a cloud site would discard that layout. Refuse
	// loudly — the operator detaches and re-attaches without affinities if
	// cloud hosting is really wanted.
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
	edge, err := m.agentFor(station)
	if err != nil {
		return rep, err
	}

	plans := make([]movePlan, len(specs))
	for i, spec := range specs {
		plans[i] = movePlan{from: station, to: site, deploy: agent.DeploySpec{
			Chain: spec.Name, Client: client, ClientMAC: mac, ClientIP: ip,
			Functions: spec.Functions, Ingress: agent.Leg{Station: station},
		}}
	}
	rep.Chains, err = m.reanchor(client, rec, plans, site, station, func() error {
		return edge.steer(trace.Context{}, agent.SteerSpec{Client: client, Via: site})
	})
	if err != nil {
		return rep, fmt.Errorf("manager: offload %w", err)
	}
	return rep, nil
}

// RecallClient moves an offloaded client's chains back to its current
// edge station, make-before-break (reanchor): deploy and restore at
// the edge, clear the detour (traffic snaps back through the fresh local
// chains), then remove the cloud copies.
func (m *Manager) RecallClient(client string) (OffloadReport, error) {
	rep := OffloadReport{Client: client, Recall: true}

	rec := m.clients.get(client)
	if rec == nil {
		return rep, fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}

	rec.migMu.Lock()
	defer rec.migMu.Unlock()

	rec.mu.Lock()
	site := rec.offload
	station := rec.station
	specs := sortedChains(rec)
	rec.mu.Unlock()
	rep.Site = site
	if site == "" {
		return rep, fmt.Errorf("%w: %s", ErrNotOffloaded, client)
	}
	if station == "" {
		return rep, fmt.Errorf("%w: %s", ErrNotAttached, client)
	}
	edge, err := m.agentFor(station)
	if err != nil {
		return rep, err
	}

	plans := make([]movePlan, len(specs))
	for i, spec := range specs {
		plans[i] = movePlan{from: site, to: station, deploy: agent.DeploySpec{
			Chain: spec.Name, Client: client, Functions: spec.Functions,
		}}
	}
	rep.Chains, err = m.reanchor(client, rec, plans, "", "", func() error {
		return edge.call(agent.MethodUnsteer, agent.UnsteerSpec{Client: client}, nil)
	})
	if err != nil {
		return rep, fmt.Errorf("manager: recall %w", err)
	}
	return rep, nil
}

// reanchor moves all of one client's chains as a single transaction and
// records the outcome. Every plan runs staged (the edge or cloud source
// serves the client until its freeze) and deferred: each chain is stood up
// at its target with the source copy left in place, flip re-points the
// client's traffic, and only then are the source copies removed. A failure
// anywhere — a chain's move or the flip — unwinds every chain already
// moved, newest first, so the client is served by the complete old set or
// the complete new one, never a mixture, and its record (offload site,
// detour station, placements) is untouched. Callers hold rec.migMu.
func (m *Manager) reanchor(client string, rec *clientRec, plans []movePlan, offload, steerOn string, flip func() error) ([]MigrationReport, error) {
	// State is preserved via stop-and-copy for both the stateful and live
	// strategies: pre-copy assumes the target can be staged behind the
	// client's steering, which a tunnelled remote deployment cannot until
	// the detour flips, so live degrades to one-shot copy here.
	strategy := m.state().strategy
	if strategy == StrategyLive {
		strategy = StrategyStateful
	}
	sp := m.tracer.StartSpan(trace.Context{}, "manager.migrate_request")
	sp.SetAttr("client", client)
	var reports []MigrationReport
	var moved []*pendingMove
	fail := func(err error) ([]MigrationReport, error) {
		for i := len(moved) - 1; i >= 0; i-- {
			moved[i].undo()
		}
		sp.End(err)
		return reports, err
	}
	for _, p := range plans {
		p.client, p.strategy, p.staged, p.deferred = client, strategy, true, true
		rep, pending := m.move(sp.Context(), p)
		reports = append(reports, rep)
		if rep.Err != "" {
			return fail(fmt.Errorf("%s/%s: %s", client, rep.Chain, rep.Err))
		}
		moved = append(moved, pending)
	}
	if err := flip(); err != nil {
		return fail(err)
	}
	for _, pending := range moved {
		pending.commit()
	}
	sp.End(nil)

	rec.mu.Lock()
	rec.offload, rec.steerOn = offload, steerOn
	for i, p := range plans {
		rec.place(deployment{chain: p.deploy.Chain}, p.to, reports[i].pooled)
	}
	rec.mu.Unlock()
	for _, rep := range reports {
		m.recordMigration(rep)
	}
	return reports, nil
}

// reconcileOffloaded handles roaming for an offloaded client: chains stay
// on the cloud site; the cloud agent re-points their ingress legs at the
// client's new station, which then installs the detour (steerVia).
// Converges on the latest station like reconcileClient does.
func (m *Manager) reconcileOffloaded(client string, rec *clientRec) {
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	for {
		rec.mu.Lock()
		target := rec.station
		site := rec.offload
		steerOn := rec.steerOn
		done := target == "" || site == "" || steerOn == target
		var chains []string
		for _, spec := range sortedChains(rec) {
			chains = append(chains, spec.Name)
		}
		rec.mu.Unlock()
		if done {
			return
		}
		rep := MigrationReport{
			Client: client, From: steerOn, To: target, Strategy: StrategySteer,
		}
		watch := clock.NewStopwatch(m.clk)
		cloud, err := m.agentFor(site)
		if err == nil {
			var edge *AgentHandle
			if edge, err = m.agentFor(target); err == nil {
				err = m.steerVia(trace.Context{}, client, chains, cloud, edge)
			}
		}
		rep.Downtime = watch.Elapsed()
		rep.Total = rep.Downtime
		if err != nil {
			rep.Err = err.Error()
		}
		rec.mu.Lock()
		if err == nil {
			rec.steerOn = target
		}
		rec.mu.Unlock()
		m.recordMigration(rep)
		if err != nil {
			return // avoid a hot loop on persistent failure
		}
	}
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

// sortedChains snapshots a client's chain specs in name order. Callers
// must hold rec.mu.
func sortedChains(rec *clientRec) []ChainSpec {
	specs := make([]ChainSpec, 0, len(rec.chains))
	for _, s := range rec.chains {
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}
