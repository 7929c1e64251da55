// Package reconcile drives GNF toward a declared desired state: it
// snapshots actual fleet state from the Manager's query surface, computes
// the semantic diff against the installed spec (internal/spec), and
// issues the minimal imperative actions — with per-action retry backoff,
// convergence-generation stamps, a dry-run mode, and an optional
// background loop. It is the convergence controller ROADMAP item 3 calls
// for: the same continuous "observe, diff, act" shape as metallb's config
// reconciliation and sfc-controller's re-render-on-change.
package reconcile

import (
	"errors"
	"sync"
	"time"

	"fmt"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/spec"
	"gnf/internal/trace"
)

// ErrNoSpec is returned by Plan and ReconcileOnce before any desired
// state has been installed.
var ErrNoSpec = errors.New("reconcile: no desired spec installed")

// Backoff bounds for failing actions: first retry after Base, doubling to
// Max while the same action keeps failing.
const (
	backoffBase = 250 * time.Millisecond
	backoffMax  = 30 * time.Second
)

// backoffEntry tracks one failing action's retry schedule.
type backoffEntry struct {
	fails int
	next  time.Time
}

// Reconciler owns the installed desired spec and converges the fleet
// toward it. All methods are safe for concurrent use.
type Reconciler struct {
	mgr *manager.Manager
	clk clock.Clock

	mu           sync.Mutex
	desired      *spec.Spec
	hash         string
	generation   uint64
	convergedGen uint64
	// lastStrategy remembers what this reconciler applied, so a strategy
	// set through another front door stands until the spec's changes.
	lastStrategy string
	backoff      map[string]*backoffEntry

	stop chan struct{}
	done chan struct{}
}

// New builds a reconciler over the manager, sharing its clock (virtual in
// sims) for backoff timing.
func New(mgr *manager.Manager) *Reconciler {
	return &Reconciler{
		mgr:     mgr,
		clk:     mgr.Clock(),
		backoff: make(map[string]*backoffEntry),
	}
}

// Status describes the installed spec and convergence progress.
type Status struct {
	Installed  bool   `json:"installed"`
	Hash       string `json:"hash,omitempty"`
	Generation uint64 `json:"generation"`
	// ConvergedGeneration is the newest generation a reconcile pass found
	// fully converged (empty diff at pass start).
	ConvergedGeneration uint64 `json:"converged_generation"`
	// Converged is true when the current generation has been observed
	// converged.
	Converged bool       `json:"converged"`
	Spec      *spec.Spec `json:"spec,omitempty"`
}

// SetSpec validates and installs a desired spec, returning the resulting
// status. Installing a spec whose canonical hash differs from the current
// one bumps the generation and clears retry backoff (a new desired state
// deserves fresh attempts); re-installing an identical spec is a no-op.
func (r *Reconciler) SetSpec(sp *spec.Spec) (Status, error) {
	if err := sp.Validate(); err != nil {
		return r.Status(), err
	}
	c := sp.Clone()
	c.Normalize()
	h := c.Hash()
	r.mu.Lock()
	defer r.mu.Unlock()
	if h != r.hash {
		r.desired = c
		r.hash = h
		r.generation++
		r.backoff = make(map[string]*backoffEntry)
	}
	return r.statusLocked(), nil
}

// Status reports the installed spec and convergence stamps.
func (r *Reconciler) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

func (r *Reconciler) statusLocked() Status {
	st := Status{
		Installed:           r.desired != nil,
		Hash:                r.hash,
		Generation:          r.generation,
		ConvergedGeneration: r.convergedGen,
		Converged:           r.generation > 0 && r.convergedGen == r.generation,
	}
	if r.desired != nil {
		st.Spec = r.desired.Clone()
	}
	return st
}

// Snapshot builds an Actual from the manager's query surface. Pool state
// costs one stats RPC per agent, so it is only gathered when wantPools is
// set (the installed spec declares pool targets).
func Snapshot(mgr *manager.Manager, wantPools bool) *spec.Actual {
	actual := &spec.Actual{Clients: make(map[string]spec.ActualClient)}

	deployed := make(map[string]map[string]string)          // client -> chain -> station
	segPlaced := make(map[string]map[string]map[int]string) // client -> base chain -> segment -> station
	for _, p := range mgr.Placements() {
		if p.Segment > 0 {
			// Anchored split-chain segments: p.Chain is the deployment name
			// ("web#1"); record under the base chain for per-segment drift.
			base, seg := agent.ParseSegmentName(p.Chain)
			if segPlaced[p.Client] == nil {
				segPlaced[p.Client] = make(map[string]map[int]string)
			}
			if segPlaced[p.Client][base] == nil {
				segPlaced[p.Client][base] = make(map[int]string)
			}
			segPlaced[p.Client][base][seg] = p.Station
			continue
		}
		if deployed[p.Client] == nil {
			deployed[p.Client] = make(map[string]string)
		}
		deployed[p.Client][p.Chain] = p.Station
	}
	windows := make(map[string]map[string]manager.Window)
	for _, s := range mgr.Schedules() {
		if windows[s.Client] == nil {
			windows[s.Client] = make(map[string]manager.Window)
		}
		windows[s.Client][s.Chain] = s.Window
	}
	for _, client := range mgr.Clients() {
		station, _ := mgr.ClientStation(client)
		site := mgr.Offloaded(client)
		ac := spec.ActualClient{
			Station: station,
			Offload: site,
			Chains:  make(map[string]spec.ActualChain),
			Windows: windows[client],
		}
		for _, cs := range mgr.Chains(client) {
			at := deployed[client][cs.Name]
			ach := spec.ActualChain{Spec: cs, DeployedOn: at, Settled: mgr.ChainSettled(cs, station, site, at)}
			if len(manager.SegmentsOf(cs)) > 1 {
				ach.Segments = segPlaced[client][cs.Name]
				if plan, ok := mgr.SegmentPlan(client, cs); ok {
					ach.SegmentPlan = plan
				}
			}
			ac.Chains[cs.Name] = ach
		}
		actual.Clients[client] = ac
	}
	if wantPools {
		actual.Pools = make(map[string][]spec.PoolState)
		for station, pools := range mgr.PoolTables() {
			for _, ps := range pools {
				actual.Pools[station] = append(actual.Pools[station], spec.PoolState{
					Kinds: ps.Kinds, ConfigHash: ps.ConfigHash,
					Refs: ps.Refs, Replicas: ps.Replicas,
				})
			}
		}
	}
	return actual
}

// Plan computes the current diff without executing anything and without
// backoff filtering — the full gap, for operator review (gnfctl diff,
// GET /api/diff).
func (r *Reconciler) Plan() ([]spec.Action, error) {
	r.mu.Lock()
	desired := r.desired
	r.mu.Unlock()
	if desired == nil {
		return nil, ErrNoSpec
	}
	actual := Snapshot(r.mgr, len(desired.Pools) > 0)
	return spec.Diff(desired, actual), nil
}

// ActionResult pairs a planned action with its execution outcome.
type ActionResult struct {
	Action spec.Action `json:"action"`
	Err    string      `json:"err,omitempty"`
}

// Result reports one reconcile pass.
type Result struct {
	Generation uint64 `json:"generation"`
	DryRun     bool   `json:"dry_run"`
	// Planned is the full diff at pass start (before backoff filtering).
	Planned []spec.Action `json:"planned,omitempty"`
	// Executed holds the actions actually issued this pass with their
	// outcomes (empty in dry-run).
	Executed []ActionResult `json:"executed,omitempty"`
	// Failed counts executed actions that errored; Deferred counts planned
	// actions skipped because they are in retry backoff.
	Failed   int `json:"failed"`
	Deferred int `json:"deferred"`
	// Converged is true when the pass found nothing to do: the fleet
	// matched the desired state at pass start.
	Converged bool `json:"converged"`
}

// ReconcileOnce runs a single observe→diff→act pass. With dryRun set it
// only reports the plan. A pass that finds an empty diff stamps the
// current generation converged.
func (r *Reconciler) ReconcileOnce(dryRun bool) (Result, error) {
	r.mu.Lock()
	desired := r.desired
	gen := r.generation
	lastStrategy := r.lastStrategy
	r.mu.Unlock()
	if desired == nil {
		return Result{}, ErrNoSpec
	}

	res := Result{Generation: gen, DryRun: dryRun}

	if !dryRun {
		// The strategy applies before the diff, so the moves below use it.
		if desired.Strategy != "" && desired.Strategy != lastStrategy {
			r.mgr.SetStrategy(manager.Strategy(desired.Strategy))
			r.mu.Lock()
			r.lastStrategy = desired.Strategy
			r.mu.Unlock()
		}
	}

	actual := Snapshot(r.mgr, len(desired.Pools) > 0)
	res.Planned = spec.Diff(desired, actual)
	res.Converged = len(res.Planned) == 0
	if res.Converged {
		r.mu.Lock()
		// Stamp only if no newer spec landed while we were snapshotting.
		stamped := false
		if r.generation == gen && r.convergedGen < gen {
			r.convergedGen = gen
			stamped = true
		}
		r.mu.Unlock()
		if stamped {
			// Journal the convergence edge, not every idle tick — the loop
			// re-finds an empty diff each interval and would flood the ring.
			r.mgr.Journal().Append(trace.Event{
				Type:    trace.EventReconcile,
				Detail:  fmt.Sprintf("generation %d converged", gen),
				Subject: fmt.Sprintf("gen-%d", gen),
			})
		}
		return res, nil
	}
	if dryRun {
		return res, nil
	}

	now := r.clk.Now()
	for _, a := range res.Planned {
		key := a.Key()
		r.mu.Lock()
		be := r.backoff[key]
		deferred := be != nil && now.Before(be.next)
		r.mu.Unlock()
		if deferred {
			res.Deferred++
			continue
		}
		err := r.apply(a)
		ar := ActionResult{Action: a}
		r.mu.Lock()
		if err != nil {
			ar.Err = err.Error()
			res.Failed++
			if be == nil {
				be = &backoffEntry{}
				r.backoff[key] = be
			}
			be.fails++
			delay := backoffBase << (be.fails - 1)
			if delay > backoffMax || delay <= 0 {
				delay = backoffMax
			}
			be.next = now.Add(delay)
		} else {
			delete(r.backoff, key)
		}
		r.mu.Unlock()
		res.Executed = append(res.Executed, ar)
	}
	ev := trace.Event{
		Type:    trace.EventReconcile,
		Subject: fmt.Sprintf("gen-%d", gen),
		Detail: fmt.Sprintf("planned=%d executed=%d failed=%d deferred=%d",
			len(res.Planned), len(res.Executed), res.Failed, res.Deferred),
	}
	if res.Failed > 0 {
		ev.Err = fmt.Sprintf("%d action(s) failed", res.Failed)
	}
	r.mgr.Journal().Append(ev)
	return res, nil
}

// apply maps one diff action to its manager call.
func (r *Reconciler) apply(a spec.Action) error {
	switch a.Kind {
	case spec.ActionAttach:
		if err := r.mgr.AttachChain(a.Client, a.Chain.ChainSpec); err != nil {
			return err
		}
		if a.Chain.Schedule != nil {
			return r.mgr.Schedule(a.Client, a.ChainName, *a.Chain.Schedule)
		}
		return nil
	case spec.ActionDetach:
		return r.mgr.DetachChain(a.Client, a.ChainName)
	case spec.ActionMigrate:
		_, err := r.mgr.MigrateSegment(a.Client, a.ChainName, a.Segment, a.Station)
		return err
	case spec.ActionSchedule:
		return r.mgr.Schedule(a.Client, a.ChainName, *a.Window)
	case spec.ActionUnschedule:
		r.mgr.Unschedule(a.Client, a.ChainName)
		return nil
	case spec.ActionOffload:
		_, err := r.mgr.OffloadClient(a.Client, a.Site)
		return err
	case spec.ActionRecall:
		_, err := r.mgr.RecallClient(a.Client)
		return err
	case spec.ActionScale:
		return r.mgr.ScalePool(a.Station, a.Kinds, a.ConfigHash, a.Replicas)
	}
	return errors.New("reconcile: unknown action kind " + string(a.Kind))
}

// Start runs ReconcileOnce every interval until Stop (or a second Start
// is a no-op). Wall-clock deployments use this; virtual-clock scenarios
// script passes instead.
func (r *Reconciler) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	r.mu.Lock()
	if r.stop != nil {
		r.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.stop, r.done = stop, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// ErrNoSpec before the first PUT /api/spec is the idle state.
				_, _ = r.ReconcileOnce(false)
			}
		}
	}()
}

// Stop halts the background loop (idempotent).
func (r *Reconciler) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
