package manager

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"

	"gnf/internal/agent"
	"gnf/internal/trace"
)

// RegisterClient makes a client known to the manager before any agent
// reports it; the core layer calls this with addressing so deploys can
// install steering (the agent also needs AttachClient locally).
func (m *Manager) RegisterClient(client string) {
	m.clients.getOrCreate(client)
}

// AttachChain deploys an NF chain for a client and remembers it for future
// roaming (the Manager API of §3: "allows single or chain of NFs to be
// associated with a subset of a selected client's traffic"). It is a move
// from nowhere: every segment, tail first, moves cold to where the placement
// rule puts it, as one transaction (moveAll), so a failure leaves nothing
// deployed, recorded or steered.
func (m *Manager) AttachChain(client string, spec ChainSpec) error {
	rec := m.clients.get(client)
	if rec == nil {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
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
	cl := rec.whereabouts()
	rec.mu.Unlock()
	if cl.station == "" {
		return fmt.Errorf("%w: %s", ErrNotAttached, client)
	}

	// Validation runs even for unsplit chains so a typoed affinity tag
	// fails loudly instead of silently collapsing to one segment.
	if err := ValidateSegments(spec); err != nil {
		return err
	}
	st := m.state()
	stations, err := segmentStations(st, cl, spec, max(len(SegmentsOf(spec)), 1))
	if err != nil {
		return err
	}
	// The chain's QoS budget holds over the path its traffic takes: an
	// attach that cannot meet it is an operator error, surfaced here.
	if rtt, ok := pathRTT(st.topo, cl.station, stations); ok && spec.MaxRTT() > 0 && rtt > spec.MaxRTT() {
		return fmt.Errorf("manager: chain %s: multi-leg path RTT %s exceeds budget %s (stations %v)",
			spec.Name, rtt, spec.MaxRTT(), stations)
	}
	hops := make([]hop, len(stations))
	for i, at := range stations {
		hops[len(hops)-1-i] = hop{deployment{spec.Name, i}, "", at}
	}
	rec.mu.Lock()
	rec.chains[spec.Name] = spec
	rec.mu.Unlock()
	if _, err := m.moveAll(trace.Context{}, client, rec, hops, StrategyCold); err != nil {
		rec.mu.Lock()
		delete(rec.chains, spec.Name)
		rec.mu.Unlock()
		return err
	}
	detail := "client=" + client
	if len(stations) > 1 {
		detail = fmt.Sprintf("client=%s segments=%v", client, stations)
	}
	m.journal.Append(trace.Event{Type: trace.EventAttach, Subject: spec.Name, Station: stations[0], Detail: detail})
	return nil
}

// DetachChain removes a chain from a client everywhere it runs. It waits out
// a move of the client's chains in flight (rec.migMu): a detach landing
// between a move's last source-side RPC and its placement update would remove
// the source and leave the target serving a chain nobody records.
func (m *Manager) DetachChain(client, chainName string) error {
	rec := m.clients.get(client)
	if rec == nil {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	rec.mu.Lock()
	_, exists := rec.chains[chainName]
	headAt := rec.at(deployment{chain: chainName})
	delete(rec.chains, chainName)
	// Every segment of the chain, head first.
	placed := maps.Clone(rec.placed)
	var deps []deployment
	for dep := range placed {
		if dep.chain == chainName {
			deps = append(deps, dep)
			rec.place(dep, "", false)
		}
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i].seg < deps[j].seg })
	rec.mu.Unlock()
	if !exists {
		return fmt.Errorf("%w: %s", ErrUnknownChain, chainName)
	}
	// A window must not outlive its chain: a later chain attached under
	// the same name would silently inherit it.
	m.Unschedule(client, chainName)
	m.journal.Append(trace.Event{
		Type: trace.EventDetach, Subject: chainName, Station: headAt,
		Detail: "client=" + client,
	})
	m.render(trace.Context{}, client, rec) // the client's traffic leaves the chain before it goes
	// The head's removal is the detach's outcome. Anchored segments go best
	// effort after it: with the head gone the client's traffic no longer
	// enters the split path, so a segment whose station is unreachable
	// merely lingers until rejoin GC.
	var headErr error
	for _, dep := range deps {
		h, err := m.agentFor(placed[dep].station)
		if err == nil {
			err = h.call(agent.MethodRemove, agent.ChainRef{Chain: dep.name()}, nil)
		}
		if dep.seg == 0 {
			headErr = err
		}
	}
	return headErr
}

// Chains lists a client's attached chain specs.
func (m *Manager) Chains(client string) []ChainSpec {
	rec := m.clients.get(client)
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return slices.Collect(maps.Values(rec.chains))
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
		// Out of coverage the last legs stand; the station dropped the steer.
		rec.mu.Lock()
		if rec.station == ev.Station {
			rec.station = ""
		}
		if rec.rendered.at == ev.Station {
			rec.rendered.at, rec.rendered.via = "", ""
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
	rec.mu.Unlock()
	// Root span of the handoff: every decision and RPC the reconciliation
	// makes — checkpoints, restores, the steering flip, the brownout
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
		client:  ev.Client,
		rec:     rec,
		station: ev.Station,
		sp:      sp,
		tctx:    sp.Context(),
	})
}

// reconcileClient renders the client's new station first — its traffic
// follows its heads wherever they run: back to a head about to move (the
// handoff's detour), or on to an offloaded or lagging one — and then moves its
// chains until every head runs where the placement rule (wantAt) puts it.
// Migrations for one client are serialised on rec.migMu, and the client's
// position is re-read after every migration — rapid successive handoffs
// therefore converge on the latest station instead of racing duplicate
// deployments. Anchored segments never move on a handoff.
func (m *Manager) reconcileClient(client string, rec *clientRec, tctx trace.Context) {
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	m.render(tctx, client, rec)
	for {
		st := m.state()
		rec.mu.Lock()
		cl := rec.whereabouts()
		var spec ChainSpec
		from, to := "", ""
		for name, s := range rec.chains {
			at := rec.at(deployment{chain: name})
			if at == "" {
				continue
			}
			if want, _ := wantAt(st, cl, s, 0, at); want != at {
				spec, from, to = s, at, want
				break
			}
		}
		rec.mu.Unlock()
		if to == "" {
			return // converged: every chain serves its client within budget
		}
		rep, _ := m.moveSegment(tctx, client, rec, hop{deployment{chain: spec.Name}, from, to}, st.strategy, nil)
		m.recordMigration(rep)
		if rep.Err != "" {
			return // avoid a hot loop on persistent failure
		}
	}
}

// MigrateChain moves a chain's head — an unsplit chain whole — between
// stations on demand (the UI's manual migration button).
func (m *Manager) MigrateChain(client, chainName, to string) (MigrationReport, error) {
	return m.MigrateSegment(client, chainName, 0, to)
}

// WaitIdle blocks until queued and in-flight roaming work completes
// (tests). The handoff pool's drain barrier replaces the old WaitGroup —
// handoffs are enqueued synchronously inside applyClientEvent, so the
// barrier can never race a concurrent Add the way WaitGroup.Wait did.
func (m *Manager) WaitIdle() { m.pool.waitIdle() }
