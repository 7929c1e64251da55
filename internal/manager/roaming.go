package manager

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"gnf/internal/agent"
	"gnf/internal/topology"
	"gnf/internal/trace"
)

// RegisterClient makes a client known to the manager before any agent
// reports it; the core layer calls this with addressing so deploys can
// install steering (the agent also needs AttachClient locally).
func (m *Manager) RegisterClient(client string) {
	m.clients.getOrCreate(client)
}

// AttachChain deploys an NF chain for a client on its current station and
// remembers it for future roaming (the Manager API of §3: "allows single
// or chain of NFs to be associated with a subset of a selected client's
// traffic").
func (m *Manager) AttachChain(client string, spec ChainSpec) error {
	rec := m.clients.get(client)
	if rec == nil {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.mu.Lock()
	if existing, dup := rec.chains[spec.Name]; dup {
		rec.mu.Unlock()
		// Re-attaching the identical spec is a no-op, so declarative
		// reconciler retries (and operator double-submits) are safe; only a
		// *different* spec under the same name is a conflict.
		if reflect.DeepEqual(existing, spec) {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrChainExists, spec.Name)
	}
	station := rec.station
	site := rec.offload
	mac, ip := rec.mac, rec.ip
	rec.mu.Unlock()
	if station == "" {
		return fmt.Errorf("%w: %s", ErrNotAttached, client)
	}

	// Chains with placement affinities split into per-station segments.
	// Validation runs even for unsplit chains so a typoed affinity tag
	// fails loudly instead of silently collapsing to one segment.
	segs := SegmentsOf(spec)
	if err := validateSplit(spec, segs); err != nil {
		return err
	}
	if len(segs) > 1 {
		if site != "" {
			return fmt.Errorf("manager: cannot attach split chain %s: client %s is offloaded to %s", spec.Name, client, site)
		}
		return m.attachSegments(client, rec, spec, segs, station, mac, ip)
	}

	// Offloaded clients get new chains on their cloud site directly.
	target := station
	deploy := agent.DeploySpec{
		Chain:     spec.Name,
		Client:    client,
		Functions: spec.Functions,
		Enabled:   true,
	}
	if site != "" {
		target = site
		deploy.Ingress = agent.Leg{Station: station}
		deploy.ClientMAC, deploy.ClientIP = mac, ip
	}
	h, err := m.agentFor(target)
	if err != nil {
		return err
	}
	// For local deploys, client MAC/IP addressing is filled in by the
	// agent from its own client table (learned at association time).
	var res agent.DeployResult
	if err := h.call(agent.MethodDeploy, deploy, &res); err != nil {
		return err
	}
	rec.mu.Lock()
	rec.chains[spec.Name] = spec
	rec.place(spec.Name, target, res.Shared)
	needSteer := site != "" && rec.steerOn != station
	if needSteer {
		rec.steerOn = station
	}
	rec.mu.Unlock()
	m.journal.Append(trace.Event{
		Type: trace.EventAttach, Subject: spec.Name, Station: target,
		Detail: "client=" + client,
	})
	// The first chain after a full detach re-arms the offload detour.
	if needSteer {
		edge, err := m.agentFor(station)
		if err != nil {
			return err
		}
		return edge.steer(trace.Context{}, agent.SteerSpec{Client: client, Via: site})
	}
	return nil
}

// DetachChain removes a chain from a client everywhere it runs.
func (m *Manager) DetachChain(client, chainName string) error {
	rec := m.clients.get(client)
	if rec == nil {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.mu.Lock()
	_, exists := rec.chains[chainName]
	station := rec.deployedOn[chainName]
	delete(rec.chains, chainName)
	delete(rec.deployedOn, chainName)
	delete(rec.pooled, chainName)
	// A split chain's anchored segments live under "name#i" deployments;
	// collect them for removal alongside the head.
	type segDep struct{ name, at string }
	var segDeps []segDep
	for dep, at := range rec.deployedOn {
		if base, s := agent.ParseSegmentName(dep); base == chainName && s > 0 {
			segDeps = append(segDeps, segDep{dep, at})
			delete(rec.deployedOn, dep)
		}
	}
	lastOffloaded := rec.offload != "" && len(rec.chains) == 0
	steerOn := rec.steerOn
	if lastOffloaded {
		rec.steerOn = ""
	}
	rec.mu.Unlock()
	if !exists {
		return fmt.Errorf("%w: %s", ErrUnknownChain, chainName)
	}
	// A window must not outlive its chain: a later chain attached under
	// the same name would silently inherit it.
	m.Unschedule(client, chainName)
	m.journal.Append(trace.Event{
		Type: trace.EventDetach, Subject: chainName, Station: station,
		Detail: "client=" + client,
	})
	// A prewarmed standby must not outlive its chain.
	m.dropStandby(rec, chainName)
	if station == "" {
		return nil
	}
	// A chain-less offloaded client must not keep its detour: a cloud
	// switch with no chain rules blackholes the return path.
	if lastOffloaded && steerOn != "" {
		if edge, err := m.agentFor(steerOn); err == nil {
			edge.call(agent.MethodUnsteer, agent.UnsteerSpec{Client: client}, nil)
		}
	}
	h, err := m.agentFor(station)
	if err != nil {
		return err
	}
	err = h.call(agent.MethodRemove, agent.ChainRef{Chain: chainName}, nil)
	// Anchored segments go best-effort after the head: with the head gone
	// the client's traffic no longer enters the split path, so a segment
	// whose station is unreachable merely lingers until rejoin GC.
	sort.Slice(segDeps, func(i, j int) bool { return segDeps[i].name < segDeps[j].name })
	for _, sd := range segDeps {
		if sh, serr := m.agentFor(sd.at); serr == nil {
			sh.call(agent.MethodRemove, agent.ChainRef{Chain: sd.name}, nil)
		}
	}
	return err
}

// Chains lists a client's attached chain specs.
func (m *Manager) Chains(client string) []ChainSpec {
	rec := m.clients.get(client)
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]ChainSpec, 0, len(rec.chains))
	for _, s := range rec.chains {
		out = append(out, s)
	}
	return out
}

// applyClientEvent reacts to client (dis)connections pushed by agents:
// this is the roaming trigger. The placement-state update and the queueing
// of the reconcile happen synchronously — before the agent's event call
// returns — so events apply in the order the handoffs really occurred and
// WaitIdle's drain barrier can never miss one. The chain reconciliation a
// connection triggers runs on the handoff pool (it issues RPCs back to
// agents); a handoff arriving while the client's previous reconcile is
// still queued supersedes it there (storm coalescing). When a client
// appears on a new station and has chains deployed elsewhere, every chain
// migrates.
func (m *Manager) applyClientEvent(ev agent.ClientEvent) {
	rec := m.clients.getOrCreate(ev.Client)
	if !ev.Connected {
		rec.mu.Lock()
		if rec.station == ev.Station {
			rec.station = ""
		}
		if rec.steerOn == ev.Station {
			rec.steerOn = "" // the detour rule died with the association
		}
		rec.mu.Unlock()
		m.journal.Append(trace.Event{
			Type: trace.EventClient, Subject: ev.Client, Station: ev.Station,
			Detail: "disconnect",
		})
		return
	}
	rec.mu.Lock()
	rec.station, rec.arrived = ev.Station, m.clk.Now()
	if !ev.MAC.IsZero() {
		rec.mac, rec.ip = ev.MAC, ev.IP
	}
	// Train the mobility predictor on the true station-to-station
	// transition. lastStation survives the break-before-make gap (station
	// is "" between the disconnect and this connect).
	prev := rec.lastStation
	rec.lastStation = ev.Station
	offloaded := rec.offload != ""
	rec.mu.Unlock()
	m.predictor.Observe(prev, ev.Station)
	// Root span of the handoff: every decision and RPC the reconciliation
	// makes — pre-copy rounds, deltas, the steering flip, the brownout
	// replay — nests under this one trace. Sampling is decided here.
	sp := m.tracer.StartSpan(trace.Context{}, "manager.handoff")
	sp.SetAttr("client", ev.Client)
	sp.SetAttr("station", ev.Station)
	tid := ""
	if sp.Context().Recording() {
		tid = sp.Context().TraceID
	}
	m.journal.Append(trace.Event{
		Type: trace.EventClient, Subject: ev.Client, Station: ev.Station,
		TraceID: tid, Detail: "connect",
	})
	m.pool.enqueue(&handoffTask{
		client:    ev.Client,
		rec:       rec,
		station:   ev.Station,
		offloaded: offloaded,
		sp:        sp,
		tctx:      sp.Context(),
	})
}

// reconcileClient migrates the client's chains until every one of them
// satisfies the client's current position. Migrations for one client are
// serialised on rec.migMu, and the target station is re-read after every
// migration — rapid successive handoffs therefore converge on the latest
// station instead of racing duplicate deployments.
//
// By default every chain follows the client to its station (the paper's
// roaming contract). With an RTT-aware placement policy and a topology
// graph installed, a chain carrying a MaxRTT budget may instead *stay* on
// its old station while that station still meets the budget from the
// client's new position; only when the topology makes the old station
// violate the budget is the chain re-placed, through the policy.
func (m *Manager) reconcileClient(client string, rec *clientRec, tctx trace.Context) {
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	// Chains the stay-rule accepted or a self-targeted re-place settled;
	// skipping them keeps the loop convergent. Reset on handoff: a new
	// client station re-evaluates every budget.
	settled := make(map[string]bool)
	settledAt := ""
	for {
		st := m.state()
		qos := st.topo != nil
		if _, aware := st.placement.(rttAware); !aware {
			qos = false
		}
		rec.mu.Lock()
		target := rec.station
		if target != settledAt {
			settled, settledAt = make(map[string]bool), target
		}
		var spec ChainSpec
		from := ""
		found := false
		split := false
		if target != "" {
			for name, s := range rec.chains {
				at := rec.deployedOn[name]
				if at == "" || at == target || settled[name] {
					continue
				}
				isSplit := len(SegmentsOf(s)) > 1
				// Split chains: the head strictly chases the client (the
				// stay-rule would strand the access leg); the anchored
				// segments never move on a handoff.
				if qos && !isSplit && withinBudget(st.topo, s, target, at) {
					continue // the old station still meets the chain's budget
				}
				spec, from, found, split = s, at, true, isSplit
				break
			}
		}
		rec.mu.Unlock()
		if !found {
			// Converged: every chain serves its client within policy. Stage
			// standbys for the predicted next handoff while still holding
			// the migration lock, so a prewarm never races a migration.
			m.maybePrewarm(client, rec)
			return
		}
		to := target
		if qos && spec.MaxRTT() > 0 && !split {
			// Budget violated: re-place through the policy. The client's
			// station is the usual answer (RTT 0), but a candidate that
			// fits the budget may win on the policy's own ranking.
			if picked, ok := m.place(PlacementHint{
				Client: client, Chain: spec.Name,
				Prefer: target, ClientAt: target,
				MaxRTT:       spec.MaxRTT(),
				ConfigHashes: chainConfigHashes(spec),
			}); ok {
				to = picked
			}
		}
		if to == from {
			settled[spec.Name] = true
			continue
		}
		rep := m.migrateChain(tctx, client, rec, spec, from, to, st.strategy)
		m.recordMigration(rep)
		if rep.Err != "" {
			return // avoid a hot loop on persistent failure
		}
	}
}

// withinBudget reports whether hosting the chain at `at` keeps its
// predicted RTT from the client's station within the chain's MaxRTT
// budget, over the given topology graph.
func withinBudget(topo *topology.Graph, spec ChainSpec, clientAt, at string) bool {
	budget := spec.MaxRTT()
	if budget <= 0 || topo == nil {
		return false
	}
	rtt, ok := topo.RTT(topology.StationID(clientAt), topology.StationID(at))
	return ok && rtt <= budget
}

// ChainSettled reports whether a chain deployed at `at` is in its settled
// placement for a client at `clientAt`: co-located with the client, or —
// under an RTT-aware placement policy — lagging behind within the chain's
// QoS budget (the same stay-rule roaming applies). The reconciler uses
// this to tell drifted chains (orphans, failed migrations) from chains
// that are legitimately elsewhere.
func (m *Manager) ChainSettled(spec ChainSpec, clientAt, at string) bool {
	if at == "" || clientAt == "" {
		return false
	}
	if at == clientAt {
		return true
	}
	// A split chain's head strictly follows the client — the QoS stay-rule
	// below never applies to it.
	if len(SegmentsOf(spec)) > 1 {
		return false
	}
	st := m.state()
	if _, ok := st.placement.(rttAware); !ok {
		return false
	}
	return withinBudget(st.topo, spec, clientAt, at)
}

// MigrateChain moves one chain between stations on demand (the UI's manual
// migration button); roaming uses the same path.
func (m *Manager) MigrateChain(client, chainName, to string) (MigrationReport, error) {
	rec := m.clients.get(client)
	if rec == nil {
		return MigrationReport{}, fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.mu.Lock()
	spec, ok := rec.chains[chainName]
	rec.mu.Unlock()
	if !ok {
		return MigrationReport{}, fmt.Errorf("%w: %s", ErrUnknownChain, chainName)
	}
	strategy := m.state().strategy
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	rec.mu.Lock()
	from := rec.deployedOn[chainName]
	rec.mu.Unlock()
	sp := m.tracer.StartSpan(trace.Context{}, "manager.migrate_request")
	sp.SetAttr("client", client)
	rep := m.migrateChain(sp.Context(), client, rec, spec, from, to, strategy)
	sp.End(nil)
	m.recordMigration(rep)
	if rep.Err != "" {
		return rep, fmt.Errorf("manager: migration failed: %s", rep.Err)
	}
	return rep, nil
}

// prewarmConfidence is the minimum Markov transition probability before
// the manager stages a standby at the predicted next station.
const prewarmConfidence = 0.5

// migrateChain plans one chain's move between stations for the move
// engine (move.go) and, when the move succeeds, points the client's
// placement record at the target — what handoffs, MigrateChain, evacuation
// and failover revival all funnel through. Callers hold rec.migMu. A
// handoff has a gap to hide the target's deploy in, so the plan is never
// staged; a split chain moves only its head segment.
func (m *Manager) migrateChain(tctx trace.Context, client string, rec *clientRec, spec ChainSpec, from, to string, strategy Strategy) MigrationReport {
	// A live migration picks up the standby staged at its target. A standby
	// staged anywhere else — or under any other strategy — is stale: tear it
	// down first, or it would collide with the deploy (same chain name) or
	// linger as an orphan after the prediction missed.
	resume := strategy == StrategyLive && consumeStandby(rec, spec.Name, to)
	if !resume {
		m.dropStandby(rec, spec.Name)
	}
	deploy := headDeploy(client, rec, spec)
	rec.mu.Lock()
	pooled := rec.pooled[spec.Name]
	arrived := rec.detourableSince(spec.Name, to)
	rec.mu.Unlock()
	rep, _ := m.move(tctx, movePlan{
		client: client, from: from, to: to, strategy: strategy,
		deploy: deploy, resume: resume, pooled: pooled, arrived: arrived,
	})
	if rep.Err == "" {
		rec.mu.Lock()
		rec.place(spec.Name, to, rep.pooled)
		rec.mu.Unlock()
	}
	return rep
}

// detourableSince reports when the client associated at station `to` if a
// move of chain there is a handoff during which the client's traffic may be
// sent back to the source, and the zero time otherwise: the client is not
// at `to` (it sits the move out at the source), or another of its chains
// already serves — or stands by — there. A detour takes all of the client's
// traffic and outranks every chain rule at its station, so it would carry
// that traffic past the chain that has landed; one client's chains move one
// after another, and only the first finds them all still at the source.
// Callers hold rec.mu.
func (rec *clientRec) detourableSince(chain, to string) time.Time {
	if rec.station != to {
		return time.Time{}
	}
	for name, at := range rec.deployedOn {
		if name != chain && at == to {
			return time.Time{}
		}
	}
	for name, at := range rec.standby {
		if name != chain && at == to {
			return time.Time{}
		}
	}
	return rec.arrived
}

// headDeploy builds the deploy spec that moves a chain under its own name.
// Split chains move only their head segment: the deploy ships the head's
// functions alone (the bytes a migration moves shrink to the client-near
// state) and its egress leg names segment 1 where it is anchored, which is
// what has the move re-splice that segment's ingress leg.
func headDeploy(client string, rec *clientRec, spec ChainSpec) agent.DeploySpec {
	segs := SegmentsOf(spec)
	if len(segs) < 2 {
		return agent.DeploySpec{Chain: spec.Name, Client: client, Functions: spec.Functions}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return segmentDeploy(client, rec.mac, rec.ip, spec.Name, segs, 0, rec.segmentAt(spec.Name))
}

// consumeStandby claims the chain's standby if it is staged at station
// `to`, deleting the record: the standby deployment becomes the
// migration's target.
func consumeStandby(rec *clientRec, chain, to string) bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.standby == nil || rec.standby[chain] != to {
		return false
	}
	delete(rec.standby, chain)
	return true
}

// dropStandby forgets the chain's standby record and tears the staged
// deployment down (best effort — a vanished station simply loses it).
func (m *Manager) dropStandby(rec *clientRec, chain string) {
	var station string
	rec.mu.Lock()
	if rec.standby != nil {
		station = rec.standby[chain]
		delete(rec.standby, chain)
	}
	rec.mu.Unlock()
	if station == "" {
		return
	}
	if h, err := m.agentFor(station); err == nil {
		h.call(agent.MethodRemove, agent.ChainRef{Chain: chain}, nil)
	}
}

// maybePrewarm stages disabled, state-synced standby chains at the station
// the mobility predictor expects the client to roam to next, so the
// eventual handoff skips the deploy and the bulk state transfer entirely.
// Callers hold rec.migMu, serialising prewarms against migrations; every
// step is best effort — a failed prewarm costs nothing but the miss.
func (m *Manager) maybePrewarm(client string, rec *clientRec) {
	st := m.state()
	rec.mu.Lock()
	enabled := st.prewarm && st.strategy == StrategyLive && rec.offload == ""
	station := rec.station
	chains := make(map[string]ChainSpec)
	for name, spec := range rec.chains {
		// Split chains are excluded from prewarming: a standby head would
		// need its downstream leg staged too, and the handoff only moves
		// the head's (small) state anyway.
		if rec.deployedOn[name] == station && len(SegmentsOf(spec)) <= 1 {
			chains[name] = spec
		}
	}
	standbys := make(map[string]string, len(rec.standby))
	for name, st := range rec.standby {
		standbys[name] = st
	}
	rec.mu.Unlock()
	if !enabled || station == "" || len(chains) == 0 {
		return
	}
	next, prob, ok := m.predictor.Predict(station)
	if !ok || prob < prewarmConfidence || next == station {
		return
	}
	for name, spec := range chains {
		if standbys[name] == next {
			continue // already staged at the predicted station
		}
		if standbys[name] != "" {
			m.dropStandby(rec, name) // prediction changed: restage
		}
		// The standby plan stops after the initial sync: a fresh session's
		// full state lands on the standby; the migration's rounds later ship
		// only what changed since.
		_, staged := m.move(trace.Context{}, movePlan{
			client: client, from: station, to: next, strategy: StrategyLive,
			deploy:  agent.DeploySpec{Chain: name, Client: client, Functions: spec.Functions},
			staged:  true,
			standby: true,
		})
		if staged == nil {
			continue
		}
		rec.mu.Lock()
		// DetachChain does not hold the migration lock, so the chain may
		// have been detached while we staged: its dropStandby saw no record
		// yet, making this standby ours to reap — recording it would leak
		// an orphaned deployment forever.
		_, alive := rec.chains[name]
		if alive {
			if rec.standby == nil {
				rec.standby = make(map[string]string)
			}
			rec.standby[name] = next
		}
		rec.mu.Unlock()
		if !alive {
			staged.undo()
		}
	}
}

// WaitIdle blocks until queued and in-flight roaming work completes
// (tests). The handoff pool's drain barrier replaces the old WaitGroup —
// handoffs are enqueued synchronously inside applyClientEvent, so the
// barrier can never race a concurrent Add the way WaitGroup.Wait did.
func (m *Manager) WaitIdle() { m.pool.waitIdle() }
