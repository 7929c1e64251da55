package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/mobility"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/reconcile"
	dstate "gnf/internal/spec"
	"gnf/internal/topology"
	"gnf/internal/trace"
	"gnf/internal/traffic"
)

// Migration is one canonical migration-log entry: the placement move
// stripped of measured durations, which is what two runs of the same seed
// must reproduce byte-for-byte.
type Migration struct {
	Client   string `json:"client"`
	Chain    string `json:"chain"`
	From     string `json:"from"`
	To       string `json:"to"`
	Strategy string `json:"strategy"`
}

// Result is everything a run produced.
type Result struct {
	Scenario string `json:"scenario"`
	// Handoffs counts cell-to-cell association changes (first attaches
	// and detaches excluded).
	Handoffs int `json:"handoffs"`
	// Migrations is the canonical migration log: settled after every
	// script step, sorted within each step's batch, so the sequence is a
	// deterministic function of the spec.
	Migrations []Migration `json:"migrations"`
	// FailedMigrations carries the error strings of migrations that did
	// not complete.
	FailedMigrations []string `json:"failed_migrations,omitempty"`
	Failovers        int      `json:"failovers"`
	// Violations is the final invariant audit (minus allowed kinds).
	Violations []core.Violation `json:"violations,omitempty"`
	// FinalStations maps every client to its station at scenario end
	// ("" = unassociated).
	FinalStations map[string]string `json:"final_stations"`
	// ScaleOuts / ScaleIns count successful replica-group grows and
	// shrinks the autoscaler ordered during the run.
	ScaleOuts int `json:"scale_outs,omitempty"`
	ScaleIns  int `json:"scale_ins,omitempty"`
	// MaxDowntime is the largest dark window any successful migration
	// measured; DroppedFrames sums frame drops across every chain at
	// scenario end (0 under the zero-loss brownout-buffer contract);
	// ReplayedFrames counts brownout-buffered frames replayed on
	// activation.
	MaxDowntime    Duration `json:"max_downtime,omitempty"`
	DroppedFrames  uint64   `json:"dropped_frames,omitempty"`
	ReplayedFrames uint64   `json:"replayed_frames,omitempty"`
	// PoolReplicas maps each station to the total replicas of its
	// referenced shared instances at scenario end.
	PoolReplicas map[string]int `json:"pool_replicas,omitempty"`
	// ScheduleTransitions counts chain enable/disable transitions made by
	// eval-schedules steps over the whole run.
	ScheduleTransitions int `json:"schedule_transitions,omitempty"`
	// ChainRTTs maps "client/chain" to the predicted client<->chain
	// round-trip at scenario end, over the topology graph (only when the
	// scenario declares one).
	ChainRTTs map[string]Duration `json:"chain_rtts,omitempty"`
	// ReconcileActions is the total imperative actions issued by reconcile
	// passes (the scenario's spec, apply-spec and reconcile steps);
	// ConvergedIn is the worst virtual time any installed document took to
	// converge.
	ReconcileActions int      `json:"reconcile_actions,omitempty"`
	ConvergedIn      Duration `json:"converged_in,omitempty"`
	// Load summarises the (last) load step's megascale harness run; nil
	// when the script had none.
	Load *LoadSummary `json:"load,omitempty"`
	// TraceSpans is the largest connected span tree any stored trace held
	// at scenario end; JournalEvents counts journal entries by type.
	TraceSpans    int            `json:"trace_spans,omitempty"`
	JournalEvents map[string]int `json:"journal_events,omitempty"`
	// VirtualElapsed is simulated time consumed by the run (rendered as a
	// duration string, e.g. "12s", like every duration in scenario files).
	VirtualElapsed Duration `json:"virtual_elapsed"`
	// Failures lists unmet expectations; empty means the scenario passed.
	Failures []string `json:"failures,omitempty"`
}

// LoadSummary is the outcome of a load step: per-flow continuity
// accounting from the traffic harness, serialized for the result log.
type LoadSummary struct {
	Flows       int      `json:"flows"` // flows with at least one arrival
	Sent        uint64   `json:"sent"`
	Received    uint64   `json:"received"`
	Lost        uint64   `json:"lost"`
	LossWindows uint64   `json:"loss_windows"`
	Late        uint64   `json:"late,omitempty"`
	LossRatio   float64  `json:"loss_ratio"`
	P50         Duration `json:"p50"`
	P99         Duration `json:"p99"`
}

// Passed reports whether every declared expectation held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// Engine executes one Spec against a dedicated core.System on an
// auto-advancing virtual clock. Engines are single-use: Run may be called
// once.
type Engine struct {
	spec  *Spec
	sys   *core.System
	clk   *clock.Virtual
	graph *topology.Graph // station graph (nil without a topology block)

	start      time.Time
	handoffs   int
	migSeen    int // migration reports already folded into the canonical log
	schedTrans int // transitions applied by eval-schedules steps
	result     *Result
	loadSink   *netem.Host // backhaul sink for load steps, created lazily

	// rec converges the installed desired state; it shares the virtual
	// clock, so backoff timing is simulated.
	rec              *reconcile.Reconciler
	reconcileActions int
	convergeWorst    time.Duration // slowest convergence of an installed document

	// clients is the deployed client list after fleet expansion
	// (Client.Count); fleet maps each declared client ID to the concrete
	// IDs it expanded to — what a storm step fans out over.
	clients []Client
	fleet   map[string][]string
}

// New validates the spec and brings the deployment up.
func New(sp *Spec) (*Engine, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	cfg := core.Config{
		Strategy: manager.StrategyStateful,
		Stations: make([]core.StationConfig, 0, len(sp.Stations)),
		Clouds:   make([]core.CloudConfig, 0, len(sp.Clouds)),
	}
	for _, st := range sp.Stations {
		sc := core.StationConfig{
			ID:          topology.StationID(st.ID),
			MemoryBytes: st.MemoryBytes,
			Position:    topology.Point{X: st.Position.X, Y: st.Position.Y},
		}
		for _, c := range st.Cells {
			sc.Cells = append(sc.Cells, core.CellConfig{
				ID:     topology.CellID(c.ID),
				Center: topology.Point{X: c.Center.X, Y: c.Center.Y},
				Radius: c.Radius,
			})
		}
		cfg.Stations = append(cfg.Stations, sc)
	}
	for _, cl := range sp.Clouds {
		cfg.Clouds = append(cfg.Clouds, core.CloudConfig{
			ID:  topology.StationID(cl.ID),
			WAN: cloudWAN(cl),
		})
	}
	graph := buildGraph(sp)
	cfg.Topology = graph
	sys, clk, err := core.NewVirtualSystem(cfg)
	if err != nil {
		return nil, err
	}
	if sp.Autoscaler != nil {
		sys.Manager.SetAutoscalerPolicy(manager.AutoscalerPolicy{
			ScaleOutLoad: sp.Autoscaler.ScaleOutLoad,
			ScaleInLoad:  sp.Autoscaler.ScaleInLoad,
			MaxReplicas:  sp.Autoscaler.MaxReplicas,
		})
	}
	e := &Engine{spec: sp, sys: sys, clk: clk, graph: graph, start: clk.Now(), rec: reconcile.New(sys.Manager)}
	if err := e.expandClients(); err != nil {
		sys.Close()
		return nil, err
	}
	sys.Topo.OnAssociation(func(ev topology.AssociationEvent) {
		if ev.From != "" && ev.To != "" {
			e.handoffs++
		}
	})
	return e, nil
}

// buildGraph turns the spec's topology block into a station graph; nil
// without one. Cloud sites always join as WAN spokes — one link to every
// station, shaped exactly like the tunnels AddCloudSite wires.
func buildGraph(sp *Spec) *topology.Graph {
	tp := sp.Topology
	if tp == nil {
		return nil
	}
	ids := make([]topology.StationID, 0, len(sp.Stations))
	for _, st := range sp.Stations {
		ids = append(ids, topology.StationID(st.ID))
	}
	hop := time.Duration(tp.HopDelayMs * float64(time.Millisecond))
	var g *topology.Graph
	switch tp.Preset {
	case "ring":
		g = topology.Ring(ids, hop, tp.HopRateBps)
	case "tree":
		g = topology.Tree(ids, hop, tp.HopRateBps)
	case "fat-edge":
		g = topology.FatEdge(ids, hop, tp.HopRateBps)
	default:
		g = topology.NewGraph()
		for _, id := range ids {
			g.AddNode(id)
		}
	}
	for _, l := range tp.Links {
		g.SetLink(topology.Link{
			A: topology.StationID(l.A), B: topology.StationID(l.B),
			Delay:   time.Duration(l.DelayMs * float64(time.Millisecond)),
			RateBps: l.RateBps,
		})
	}
	for _, cl := range sp.Clouds {
		wan := cloudWAN(cl)
		site := topology.StationID(cl.ID)
		g.AddNode(site)
		for _, st := range ids {
			g.SetLink(topology.Link{A: site, B: st, Delay: wan.Delay, RateBps: wan.RateBps})
		}
	}
	return g
}

// cloudWAN resolves one cloud site's WAN shape — the single source both
// the core tunnels and the graph's cloud spokes are built from, so the
// RTT expectations can never diverge from the wired link cost.
func cloudWAN(cl Cloud) netem.LinkParams {
	if cl.DelayMs > 0 || cl.RateBps > 0 {
		return netem.LinkParams{
			Delay:   time.Duration(cl.DelayMs) * time.Millisecond,
			RateBps: cl.RateBps,
		}
	}
	return core.DefaultWAN()
}

// hysteresis returns the association stickiness in metres.
func (e *Engine) hysteresis() float64 {
	if e.spec.Hysteresis > 0 {
		return e.spec.Hysteresis
	}
	return 5
}

// clientAddr derives deterministic addressing for client index i.
func clientAddr(c Client, i int) (packet.MAC, packet.IP, error) {
	mac := packet.MAC{2, 0, 0, 0, byte(i >> 8), byte(i)}
	ip := packet.IP{10, 0, byte(i >> 8), byte(i + 1)}
	if c.IP != "" {
		parsed, ok := packet.ParseIP(c.IP)
		if !ok {
			return mac, ip, fmt.Errorf("scenario: client %s: bad ip %q", c.ID, c.IP)
		}
		ip = parsed
	}
	return mac, ip, nil
}

// expandClients materialises the deployed client list: entries with
// Count > 1 become fleets of "<id>-NNNN" clones sharing position.
// Expansion keeps the index-derived addressing collision-free and rejects
// a clone ID that shadows another declared client.
func (e *Engine) expandClients() error {
	e.fleet = make(map[string][]string, len(e.spec.Clients))
	declared := make(map[string]bool, len(e.spec.Clients))
	for _, c := range e.spec.Clients {
		declared[c.ID] = true
	}
	for _, c := range e.spec.Clients {
		if c.Count <= 1 {
			e.clients = append(e.clients, c)
			e.fleet[c.ID] = []string{c.ID}
			continue
		}
		for k := 0; k < c.Count; k++ {
			clone := c
			clone.Count = 0
			clone.ID = fmt.Sprintf("%s-%04d", c.ID, k)
			if declared[clone.ID] {
				return fmt.Errorf("scenario %s: fleet %s expands onto declared client %s",
					e.spec.Name, c.ID, clone.ID)
			}
			e.clients = append(e.clients, clone)
			e.fleet[c.ID] = append(e.fleet[c.ID], clone.ID)
		}
	}
	return nil
}

// render turns one of the scenario's desired-state documents into what
// the reconciler installs: a client naming a fleet stands for every member,
// each chain name suffixed like the member's ID (chain names are
// station-global on the agent side), and a schedule time T is read on the
// scenario's timeline, as its start plus T - clock.Epoch.
func (e *Engine) render(doc *dstate.Spec) *dstate.Spec {
	out := doc.Clone()
	declared := out.Clients
	out.Clients = nil
	for _, dc := range declared {
		for _, ch := range dc.Chains {
			if w := ch.Schedule; w != nil {
				w.EnableAt = e.onTimeline(w.EnableAt)
				w.DisableAt = e.onTimeline(w.DisableAt)
			}
		}
		for _, id := range e.fleet[dc.ID] {
			member := dc
			member.ID = id
			member.Chains = append([]dstate.Chain(nil), dc.Chains...)
			for i := range member.Chains {
				member.Chains[i].Name += strings.TrimPrefix(id, dc.ID)
			}
			out.Clients = append(out.Clients, member)
		}
	}
	return out
}

// onTimeline maps a document time onto the run's virtual clock; the zero
// time (no disable) stays zero.
func (e *Engine) onTimeline(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	return e.start.Add(t.Sub(clock.Epoch))
}

// settle waits for every in-flight reconciliation and folds the migrations
// it produced into the canonical log. Client events are synchronous calls,
// so by the time any scripted action returns the manager has recorded the
// placement change and armed its reconcile work — WaitIdle observes all of
// it without wall-clock sleeps.
func (e *Engine) settle() {
	e.sys.Manager.WaitIdle()
	reports := e.sys.Manager.Migrations()
	// The manager trims its report history at historyCap; a scenario that
	// somehow exceeded it would shift earlier indexes out from under us, so
	// clamp rather than slice past the end.
	if e.migSeen > len(reports) {
		e.migSeen = len(reports)
	}
	fresh := reports[e.migSeen:]
	e.migSeen = len(reports)
	batch := make([]Migration, 0, len(fresh))
	for _, m := range fresh {
		if m.Err != "" {
			e.result.FailedMigrations = append(e.result.FailedMigrations,
				fmt.Sprintf("%s/%s %s->%s: %s", m.Client, m.Chain, m.From, m.To, m.Err))
			continue
		}
		batch = append(batch, Migration{
			Client: m.Client, Chain: m.Chain,
			From: m.From, To: m.To, Strategy: string(m.Strategy),
		})
	}
	// Concurrent reconciles within one batch finish in arbitrary order;
	// sorting the batch makes the log a function of the spec alone.
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Chain != b.Chain {
			return a.Chain < b.Chain
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	e.result.Migrations = append(e.result.Migrations, batch...)
}

// await polls cond until it holds or the wall-clock deadline passes; it
// exists only for transitions the control plane cannot confirm
// synchronously (an agent's TCP teardown reaching the manager).
func (e *Engine) await(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("scenario %s: timed out waiting for %s", e.spec.Name, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// Run executes the scenario and returns its result. The returned error
// covers execution problems (bad references, RPC failures); unmet
// expectations land in Result.Failures instead.
func (e *Engine) Run() (*Result, error) {
	if e.result != nil {
		return nil, fmt.Errorf("scenario %s: engine already ran", e.spec.Name)
	}
	e.result = &Result{Scenario: e.spec.Name, FinalStations: map[string]string{}}
	defer e.sys.Close()

	// Deployment: clients placed, then the desired state installed.
	for i, c := range e.clients {
		mac, ip, err := clientAddr(c, i)
		if err != nil {
			return nil, err
		}
		if err := e.sys.AddClient(topology.ClientID(c.ID), mac, ip); err != nil {
			return nil, err
		}
		if c.At != nil {
			if err := e.sys.Topo.MoveClient(topology.ClientID(c.ID),
				topology.Point{X: c.At.X, Y: c.At.Y}, e.hysteresis()); err != nil {
				return nil, err
			}
		}
	}
	if e.spec.Spec != nil {
		if err := e.applySpec(e.spec.Spec); err != nil {
			return nil, fmt.Errorf("scenario %s: spec: %w", e.spec.Name, err)
		}
	}
	e.settle()

	for i, st := range e.spec.Script {
		if target := e.start.Add(st.At.Std()); target.After(e.clk.Now()) {
			e.clk.AdvanceTo(target)
		}
		if err := e.step(st); err != nil {
			return nil, fmt.Errorf("scenario %s: step %d (%s): %w", e.spec.Name, i, st.Action, err)
		}
		e.settle()
	}

	e.finish()
	return e.result, nil
}

// step dispatches one scripted action.
func (e *Engine) step(st Step) error {
	mgr := e.sys.Manager
	switch st.Action {
	case ActMove:
		if st.To == nil {
			return fmt.Errorf("move needs a destination")
		}
		return e.sys.Topo.MoveClient(topology.ClientID(st.Client),
			topology.Point{X: st.To.X, Y: st.To.Y}, e.hysteresis())
	case ActAttach:
		return e.sys.Topo.Attach(topology.ClientID(st.Client), topology.CellID(st.Cell))
	case ActDetach:
		return e.sys.Topo.Detach(topology.ClientID(st.Client))
	case ActMigrate:
		_, err := mgr.MigrateChain(st.Client, st.ChainName, st.Station)
		return err
	case ActWaypoint:
		wp := mobility.NewWaypoint(e.sys.Topo, st.ArenaW, st.ArenaH, st.Speed, e.spec.Seed)
		wp.SetHysteresis(e.hysteresis())
		for r := 0; r < st.Rounds; r++ {
			e.clk.Advance(st.Interval.Std())
			wp.Step(st.Interval.Std())
			// Settling every round keeps each round's migrations a
			// deterministic batch and matches real pacing, where a
			// mobility tick is aeons of control-plane time.
			e.settle()
		}
		return nil
	case ActKillStation:
		if err := e.sys.KillStation(topology.StationID(st.Station)); err != nil {
			return err
		}
		// The manager notices the death through TCP teardown; wait for
		// the registry drop so subsequent steps see the failure.
		return e.await("manager to drop "+st.Station, func() bool {
			_, ok := mgr.AgentHandleFor(st.Station)
			return !ok
		})
	case ActRestartStation:
		return e.sys.RestartStation(topology.StationID(st.Station))
	case ActCheckFailures:
		mgr.CheckFailures()
		return nil
	case ActEvalSchedules:
		e.schedTrans += mgr.EvaluateSchedules()
		return nil
	case ActEvacuate:
		_, err := mgr.EvacuateStation(st.Station)
		return err
	case ActTraffic:
		return e.generateTraffic(st)
	case ActLoad:
		return e.generateLoad(st)
	case ActAutoscale:
		mgr.EvaluateAutoscaler()
		return nil
	case ActApplySpec:
		return e.applySpec(st.Spec)
	case ActReconcile:
		res, err := e.rec.ReconcileOnce(false)
		if err != nil {
			return err
		}
		e.reconcileActions += len(res.Executed)
		return nil
	case ActStorm:
		// One window of mass mobility: every member of the fleet hands off
		// onto the cell. Dispatch is sequential (deterministic handoff
		// order); the migrations it arms drain concurrently through the
		// manager's worker pool, bounded by the per-station limits — the
		// following settle observes full convergence.
		ids := e.fleet[st.Client]
		if len(ids) == 0 {
			return fmt.Errorf("storm references unknown fleet %q", st.Client)
		}
		for _, id := range ids {
			if err := e.sys.Topo.Attach(topology.ClientID(id), topology.CellID(st.Cell)); err != nil {
				return err
			}
		}
		return nil
	case ActSettle:
		return nil // settle runs after every step anyway
	}
	return fmt.Errorf("unknown action %q", st.Action)
}

// applySpecPasses bounds the convergence loop of one installed document.
// Each pass that left an action failed or deferred advances virtual time by
// applySpecTick, so the cap also bounds the simulated time charged against
// converged_within_ms.
const (
	applySpecPasses = 400
	applySpecTick   = 100 * time.Millisecond
)

// applySpec installs a desired-state document in place of the previous one
// and drives reconcile passes until the fleet converges. A clean pass
// re-plans at the same instant (a recall then a re-offload takes two); a
// pass that left an action failed or deferred advances the virtual clock a
// tick, so retry backoff can expire. The elapsed virtual time is what
// converged_within_ms bounds.
func (e *Engine) applySpec(doc *dstate.Spec) error {
	if _, err := e.rec.SetSpec(e.render(doc)); err != nil {
		return err
	}
	begin := e.clk.Now()
	for pass := 0; pass < applySpecPasses; pass++ {
		res, err := e.rec.ReconcileOnce(false)
		if err != nil {
			return err
		}
		e.reconcileActions += len(res.Executed)
		if res.Converged {
			if took := e.clk.Since(begin); took > e.convergeWorst {
				e.convergeWorst = took
			}
			return nil
		}
		e.sys.Manager.WaitIdle()
		if res.Failed > 0 || res.Deferred > 0 {
			e.clk.Advance(applySpecTick)
		}
	}
	return fmt.Errorf("not converged after %d reconcile passes", applySpecPasses)
}

// trafficSink is the backhaul-side destination traffic steps send toward;
// nothing answers, the frames only exist to load the client's chains.
var trafficSink = packet.Endpoint{Addr: packet.IP{10, 200, 0, 9}, Port: 7}

// generateTraffic sends st.Frames UDP frames from the client, spread over
// st.Flows flows by source port so steering groups can hash them across
// replicas. Delivery is asynchronous (veth queues), so the step completes
// only once the client's chains have processed the whole batch — that
// makes the load visible, deterministically, to any following autoscale
// evaluation. Frames are paced in sub-queue-depth batches so the veth
// tail-drop can never eat part of the load.
func (e *Engine) generateTraffic(st Step) error {
	host := e.sys.ClientHost(topology.ClientID(st.Client))
	if host == nil {
		return fmt.Errorf("traffic: client %s has no dataplane presence", st.Client)
	}
	station, ok := e.sys.Manager.ClientStation(st.Client)
	if !ok {
		return fmt.Errorf("traffic: client %s not attached to any station", st.Client)
	}
	ag := e.sys.Agent(topology.StationID(station))
	if ag == nil {
		return fmt.Errorf("traffic: client %s attached to unknown station %s", st.Client, station)
	}
	flows := st.Flows
	if flows <= 0 {
		flows = 16
	}
	baseline, steered := clientProcessed(ag, st.Client)
	payload := []byte("gnf-load")
	const batch = 64
	for sent := 0; sent < st.Frames; {
		n := st.Frames - sent
		if n > batch {
			n = batch
		}
		for i := 0; i < n; i++ {
			if err := host.SendUDP(packet.Endpoint{Addr: trafficSink.Addr, Port: trafficSink.Port},
				uint16(30000+(sent+i)%flows), payload); err != nil {
				return fmt.Errorf("traffic: %w", err)
			}
		}
		sent += n
		// no_wait fires the batch and returns with the frames still in
		// flight: a same-instant handoff then exercises the brownout
		// buffer on frames the freeze window would otherwise drop.
		if steered && !st.NoWait {
			want := baseline + uint64(sent)
			if err := e.await(fmt.Sprintf("%s's chains to process %d frames", st.Client, sent), func() bool {
				got, _ := clientProcessed(ag, st.Client)
				return got >= want
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load-sink addressing: a fixed server host on the backhaul that load
// steps send toward; distinct from trafficSink, which nothing answers.
var (
	loadSinkMAC = packet.MAC{2, 0xef, 0, 0, 0, 1}
	loadSinkIP  = packet.IP{10, 200, 0, 10}
)

// generateLoad drives the megascale harness over the client's real
// dataplane path: client host -> station switch (and the client's chains)
// -> backhaul -> sink server. The generator stamps every frame with flow,
// sequence number and virtual send time; the sink's accountant folds
// arrivals into per-flow continuity state that finish() checks against
// the expectation block. The run is flow-controlled, so a lossless path
// must deliver every frame — any gap in the report is real loss.
func (e *Engine) generateLoad(st Step) error {
	host := e.sys.ClientHost(topology.ClientID(st.Client))
	if host == nil {
		return fmt.Errorf("load: client %s has no dataplane presence", st.Client)
	}
	// Addressing follows the client's index in the deployed list, as Run
	// assigned it.
	i := slices.IndexFunc(e.clients, func(c Client) bool { return c.ID == st.Client })
	if i < 0 {
		return fmt.Errorf("load: unknown client %s", st.Client)
	}
	cmac, cip, err := clientAddr(e.clients[i], i)
	if err != nil {
		return err
	}
	if e.loadSink == nil {
		e.loadSink = e.sys.AddServer("load-sink", loadSinkMAC, loadSinkIP)
	}
	acct := traffic.NewAccountant(st.Flows, 0, e.clk)
	acct.AttachAny(e.loadSink)

	// Prime the path: one reverse frame teaches every switch on the way
	// which port the sink lives behind, so the load unicasts instead of
	// flooding. Wait for it to reach the client before opening the load.
	e.loadSink.Learn(cip, cmac)
	rx0 := host.Endpoint().Stats().RxFrames
	if err := e.loadSink.SendUDP(packet.Endpoint{Addr: cip, Port: 9}, 9, []byte("gnf-load-prime")); err != nil {
		return fmt.Errorf("load: prime: %w", err)
	}
	if err := e.await("load prime to reach "+st.Client, func() bool {
		return host.Endpoint().Stats().RxFrames > rx0
	}); err != nil {
		return err
	}

	gen := traffic.NewLoadGen(host.Endpoint(), cmac, loadSinkMAC, cip, loadSinkIP,
		traffic.LoadConfig{Flows: st.Flows, Rounds: st.Rounds}, e.clk)
	if err := gen.Run(acct.Received); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	rep := acct.Report()
	e.result.Load = &LoadSummary{
		Flows:       rep.Flows,
		Sent:        gen.Sent(),
		Received:    rep.Received,
		Lost:        rep.Lost,
		LossWindows: rep.LossWindows,
		Late:        rep.Late,
		LossRatio:   rep.LossRatio(),
		P50:         Duration(rep.P50),
		P99:         Duration(rep.P99),
	}
	return nil
}

// clientProcessed sums processed-frame counters over the client's enabled
// chains on ag, and reports whether any such chain exists (an unsteered
// client's frames cannot be awaited).
func clientProcessed(ag *agent.Agent, client string) (uint64, bool) {
	var sum uint64
	steered := false
	for _, cs := range ag.Report().Chains {
		if cs.Client != client || !cs.Enabled {
			continue
		}
		steered = true
		sum += cs.Processed
	}
	return sum, steered
}

// finish audits invariants and evaluates expectations.
func (e *Engine) finish() {
	res, exp := e.result, e.spec.Expect
	res.Handoffs = e.handoffs
	res.VirtualElapsed = Duration(e.clk.Since(e.start))
	for _, fo := range e.sys.Manager.Failovers() {
		if fo.Err == "" {
			res.Failovers++
		} else {
			res.Failures = append(res.Failures, "failed failover: "+fo.Err)
		}
	}
	for _, c := range e.clients {
		st, _ := e.sys.Manager.ClientStation(c.ID)
		res.FinalStations[c.ID] = st
	}
	for _, mig := range e.sys.Manager.Migrations() {
		if mig.Err != "" {
			continue
		}
		if d := Duration(mig.Downtime); d > res.MaxDowntime {
			res.MaxDowntime = d
		}
		res.ReplayedFrames += mig.ReplayedFrames
	}
	// Loss accounting: drops of live chains plus the retired counters of
	// chains already torn down by migrations, over every site — edge
	// stations and cloud agents alike, so an offload scenario cannot hide
	// loss on its cloud site.
	sites := make([]string, 0, len(e.spec.Stations)+len(e.spec.Clouds))
	for _, stn := range e.spec.Stations {
		sites = append(sites, stn.ID)
	}
	for _, cl := range e.spec.Clouds {
		sites = append(sites, cl.ID)
	}
	for _, site := range sites {
		ag := e.sys.Agent(topology.StationID(site))
		if ag == nil {
			continue
		}
		rep := ag.Report()
		res.DroppedFrames += rep.RetiredDrops
		for _, cs := range rep.Chains {
			res.DroppedFrames += cs.Dropped
		}
	}
	for _, ev := range e.sys.Manager.ScaleEvents() {
		if ev.Err != "" {
			res.Failures = append(res.Failures, "failed scale: "+ev.Err)
			continue
		}
		if ev.To > ev.From {
			res.ScaleOuts++
		} else {
			res.ScaleIns++
		}
	}
	for _, stn := range e.spec.Stations {
		total := 0
		if ag := e.sys.Agent(topology.StationID(stn.ID)); ag != nil {
			for _, ps := range ag.PoolStats() {
				if ps.Refs > 0 {
					total += ps.Replicas
				}
			}
		}
		if total > 0 {
			if res.PoolReplicas == nil {
				res.PoolReplicas = map[string]int{}
			}
			res.PoolReplicas[stn.ID] = total
		}
	}

	res.ScheduleTransitions = e.schedTrans
	if exp.MaxScheduleTransitions > 0 && res.ScheduleTransitions > exp.MaxScheduleTransitions {
		res.Failures = append(res.Failures,
			fmt.Sprintf("schedule transitions: got %d, want <= %d (flapping)",
				res.ScheduleTransitions, exp.MaxScheduleTransitions))
	}
	res.ReconcileActions = e.reconcileActions
	res.ConvergedIn = Duration(e.convergeWorst)
	if exp.MaxReconcileActions > 0 && res.ReconcileActions > exp.MaxReconcileActions {
		res.Failures = append(res.Failures,
			fmt.Sprintf("reconcile actions: got %d, want <= %d (thrashing)",
				res.ReconcileActions, exp.MaxReconcileActions))
	}
	if exp.ConvergedWithinMs > 0 {
		if got := float64(e.convergeWorst.Microseconds()) / 1000; got > exp.ConvergedWithinMs {
			res.Failures = append(res.Failures,
				fmt.Sprintf("convergence: took %.3fms, want <= %.3fms", got, exp.ConvergedWithinMs))
		}
		// Convergence must also hold at scenario end: later script steps
		// (station kills, moves) may have re-opened a gap the reconciler
		// failed to close. With no document installed, Plan fails.
		if plan, err := e.rec.Plan(); err != nil {
			res.Failures = append(res.Failures, "final diff: "+err.Error())
		} else {
			for _, a := range plan {
				res.Failures = append(res.Failures, "desired state diverged at scenario end: "+a.String())
			}
		}
	}
	e.checkChainRTTs()

	allowed := map[string]bool{}
	for _, k := range exp.AllowViolations {
		allowed[k] = true
	}
	for _, v := range e.sys.Audit() {
		if !allowed[v.Kind] {
			res.Violations = append(res.Violations, v)
		}
	}
	for _, v := range res.Violations {
		res.Failures = append(res.Failures, "invariant: "+v.String())
	}

	if res.Handoffs < exp.MinHandoffs {
		res.Failures = append(res.Failures,
			fmt.Sprintf("handoffs: got %d, want >= %d", res.Handoffs, exp.MinHandoffs))
	}
	if len(res.Migrations) < exp.MinMigrations {
		res.Failures = append(res.Failures,
			fmt.Sprintf("migrations: got %d, want >= %d", len(res.Migrations), exp.MinMigrations))
	}
	if res.Failovers < exp.MinFailovers {
		res.Failures = append(res.Failures,
			fmt.Sprintf("failovers: got %d, want >= %d", res.Failovers, exp.MinFailovers))
	}
	if res.ScaleOuts < exp.MinScaleOuts {
		res.Failures = append(res.Failures,
			fmt.Sprintf("scale-outs: got %d, want >= %d", res.ScaleOuts, exp.MinScaleOuts))
	}
	if res.ScaleIns < exp.MinScaleIns {
		res.Failures = append(res.Failures,
			fmt.Sprintf("scale-ins: got %d, want >= %d", res.ScaleIns, exp.MinScaleIns))
	}
	for _, station := range slices.Sorted(maps.Keys(exp.MaxPoolReplicas)) {
		limit := exp.MaxPoolReplicas[station]
		if got := res.PoolReplicas[station]; got > limit {
			res.Failures = append(res.Failures,
				fmt.Sprintf("pool replicas on %s: got %d, want <= %d", station, got, limit))
		}
	}
	if !exp.AllowFailedMigrations {
		for _, f := range res.FailedMigrations {
			res.Failures = append(res.Failures, "failed migration: "+f)
		}
	}
	if exp.MaxVirtualMs > 0 {
		if got := float64(res.VirtualElapsed.Std().Microseconds()) / 1000; got > exp.MaxVirtualMs {
			res.Failures = append(res.Failures,
				fmt.Sprintf("virtual elapsed: got %.3fms, want <= %.3fms (storm did not converge in budget)",
					got, exp.MaxVirtualMs))
		}
	}
	if exp.MaxDowntimeMs > 0 {
		if got := float64(res.MaxDowntime.Std().Microseconds()) / 1000; got > exp.MaxDowntimeMs {
			res.Failures = append(res.Failures,
				fmt.Sprintf("max downtime: got %.3fms, want <= %.3fms", got, exp.MaxDowntimeMs))
		}
	}
	if exp.ZeroLoss && res.DroppedFrames > 0 {
		res.Failures = append(res.Failures,
			fmt.Sprintf("zero loss: %d frames dropped by chains", res.DroppedFrames))
	}
	if exp.MinFlows > 0 || exp.MaxLossRatio != nil || exp.MaxP99Ms > 0 {
		if res.Load == nil {
			res.Failures = append(res.Failures,
				"load expectations declared but no load step ran")
		} else {
			if exp.MinFlows > 0 && res.Load.Flows < exp.MinFlows {
				res.Failures = append(res.Failures,
					fmt.Sprintf("load flows: got %d, want >= %d", res.Load.Flows, exp.MinFlows))
			}
			if exp.MaxLossRatio != nil && res.Load.LossRatio > *exp.MaxLossRatio {
				res.Failures = append(res.Failures,
					fmt.Sprintf("load loss ratio: got %.6f (%d lost, %d windows), want <= %.6f",
						res.Load.LossRatio, res.Load.Lost, res.Load.LossWindows, *exp.MaxLossRatio))
			}
			if exp.MaxP99Ms > 0 {
				if got := float64(res.Load.P99.Std().Microseconds()) / 1000; got > exp.MaxP99Ms {
					res.Failures = append(res.Failures,
						fmt.Sprintf("load p99 latency: got %.3fms, want <= %.3fms", got, exp.MaxP99Ms))
				}
			}
		}
	}
	for _, client := range slices.Sorted(maps.Keys(exp.FinalStations)) {
		want := exp.FinalStations[client]
		if got := res.FinalStations[client]; got != want {
			res.Failures = append(res.Failures,
				fmt.Sprintf("final station of %s: got %q, want %q", client, got, want))
		}
	}
	for _, client := range slices.Sorted(maps.Keys(exp.Offloaded)) {
		want := exp.Offloaded[client]
		if got := e.sys.Manager.Offloaded(client); got != want {
			res.Failures = append(res.Failures,
				fmt.Sprintf("offload site of %s: got %q, want %q", client, got, want))
		}
	}
	if len(exp.Placements) > 0 {
		at := map[string]string{}
		for _, pl := range e.sys.Manager.Placements() {
			at[pl.Client+"/"+pl.Chain] = pl.Station
		}
		for _, key := range slices.Sorted(maps.Keys(exp.Placements)) {
			want := exp.Placements[key]
			if got := at[key]; got != want {
				res.Failures = append(res.Failures,
					fmt.Sprintf("placement of %s: got %q, want %q", key, got, want))
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(exp.ChainEnabled)) {
		want := exp.ChainEnabled[key]
		got, err := e.chainEnabled(key)
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("chain_enabled %q: %v", key, err))
			continue
		}
		if got != want {
			res.Failures = append(res.Failures,
				fmt.Sprintf("chain %s enabled: got %v, want %v", key, got, want))
		}
	}
	e.checkObservability()
}

// checkObservability evaluates the tracing and journal expectations: the
// largest *connected* span tree any stored trace holds (fragments — spans
// whose ancestry never reaches a root — do not count), and the presence
// of required journal event types.
func (e *Engine) checkObservability() {
	res, exp := e.result, e.spec.Expect
	tracer := e.sys.Manager.Tracer()
	for _, ts := range tracer.Traces() {
		if n := trace.ConnectedSize(tracer.Trace(ts.TraceID)); n > res.TraceSpans {
			res.TraceSpans = n
		}
	}
	if exp.MinTraceSpans > 0 && res.TraceSpans < exp.MinTraceSpans {
		res.Failures = append(res.Failures,
			fmt.Sprintf("trace spans: largest connected tree has %d, want >= %d",
				res.TraceSpans, exp.MinTraceSpans))
	}
	events := e.sys.Manager.Journal().Events(0)
	if len(events) > 0 {
		res.JournalEvents = map[string]int{}
		for _, ev := range events {
			res.JournalEvents[ev.Type]++
		}
	}
	for _, typ := range exp.ExpectEvents {
		if res.JournalEvents[typ] == 0 {
			res.Failures = append(res.Failures,
				fmt.Sprintf("journal: no %q event recorded", typ))
		}
	}
}

// checkChainRTTs predicts every attached chain's client<->chain
// round-trip over the topology graph at scenario end and enforces the
// expectation block's global max_rtt_ms cap plus each chain's own budget.
// Without a topology block this is a no-op.
//
// For split chains the predicted RTT is the full multi-leg path: the
// access leg to the head segment plus every inter-segment hop, exactly
// as the manager's own budget check walks it. The old single-placement
// walk silently scored a split chain on its head leg alone — a chain
// could be "in budget" while its anchored tail sat a continent away —
// so a chain whose segment placements the walk cannot resolve is now a
// loud failure, never a skip.
func (e *Engine) checkChainRTTs() {
	if e.graph == nil {
		return
	}
	res, exp := e.result, e.spec.Expect
	// Group placements by (client, base chain): Placements reports each
	// split-chain segment as its own entry named "chain#i".
	segsOf := map[[2]string]map[int]string{}
	for _, pl := range e.sys.Manager.Placements() {
		base, seg := agent.ParseSegmentName(pl.Chain)
		key := [2]string{pl.Client, base}
		if segsOf[key] == nil {
			segsOf[key] = map[int]string{}
		}
		segsOf[key][seg] = pl.Station
	}
	for _, client := range e.sys.Manager.Clients() {
		at := res.FinalStations[client]
		for _, spec := range e.sys.Manager.Chains(client) {
			key := client + "/" + spec.Name
			placed := segsOf[[2]string{client, spec.Name}]
			if at == "" || placed[0] == "" {
				continue // out of coverage, or never deployed: no RTT to predict
			}
			nsegs := len(manager.SegmentsOf(spec))
			if nsegs < 1 {
				nsegs = 1
			}
			total, prev, bad := time.Duration(0), at, false
			for i := 0; i < nsegs; i++ {
				st, ok := placed[i]
				if !ok || st == "" {
					res.Failures = append(res.Failures,
						fmt.Sprintf("chain rtt %s: segment %d of %d is not placed anywhere", key, i, nsegs))
					bad = true
					break
				}
				if st != prev {
					leg, ok := e.graph.RTT(topology.StationID(prev), topology.StationID(st))
					if !ok {
						res.Failures = append(res.Failures,
							fmt.Sprintf("chain rtt %s: no path between %s and %s (leg to segment %d)", key, prev, st, i))
						bad = true
						break
					}
					total += leg
				}
				prev = st
			}
			if bad {
				continue
			}
			if res.ChainRTTs == nil {
				res.ChainRTTs = map[string]Duration{}
			}
			res.ChainRTTs[key] = Duration(total)
			ms := float64(total.Microseconds()) / 1000
			if exp.MaxChainRTTMs > 0 && ms > exp.MaxChainRTTMs {
				res.Failures = append(res.Failures,
					fmt.Sprintf("chain rtt %s: got %.3fms, want <= %.3fms", key, ms, exp.MaxChainRTTMs))
			}
			if spec.MaxRTTMs > 0 && ms > spec.MaxRTTMs {
				res.Failures = append(res.Failures,
					fmt.Sprintf("chain rtt %s: got %.3fms, exceeds its %.3fms budget", key, ms, spec.MaxRTTMs))
			}
		}
	}
}

// chainEnabled resolves a chain_enabled key ("chain" or "client/chain" —
// chain names are only unique per client) to the hosted chain's
// forwarding state. A bare name matching chains of several clients is an
// error: the expectation would silently test an arbitrary one.
func (e *Engine) chainEnabled(key string) (bool, error) {
	client, chain, qualified := strings.Cut(key, "/")
	if !qualified {
		chain, client = key, ""
	}
	var matches []manager.ChainPlacement
	for _, pl := range e.sys.Manager.Placements() {
		if pl.Chain == chain && (client == "" || pl.Client == client) {
			matches = append(matches, pl)
		}
	}
	if len(matches) == 0 {
		return false, fmt.Errorf("chain not attached to any client")
	}
	if len(matches) > 1 {
		return false, fmt.Errorf("ambiguous: %d clients have a chain named %q, qualify as \"client/%s\"", len(matches), chain, chain)
	}
	pl := matches[0]
	if pl.Station == "" {
		return false, fmt.Errorf("chain not deployed anywhere")
	}
	ag := e.sys.Agent(topology.StationID(pl.Station))
	if ag == nil {
		return false, fmt.Errorf("chain placed on unknown station %s", pl.Station)
	}
	return ag.ChainEnabled(chain)
}

// Execute runs the scenario at path and writes the indented result JSON
// to w — the shared CLI entry point (gnfctl run-scenario, gnf-demo
// -scenario). It returns an error when the run cannot execute or when
// expectations went unmet, so callers can exit non-zero.
func Execute(path string, w io.Writer) error {
	sp, err := Load(path)
	if err != nil {
		return err
	}
	res, err := RunSpec(sp)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	if !res.Passed() {
		return fmt.Errorf("scenario %s: %d expectation(s) failed", res.Scenario, len(res.Failures))
	}
	return nil
}

// RunSpec executes an in-memory spec.
func RunSpec(sp *Spec) (*Result, error) {
	e, err := New(sp)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
