// Package manager implements the GNF Manager of §3: it exposes APIs to
// associate single NFs or chains with a subset of a client's traffic,
// keeps a connection to every Agent, continuously monitors station health
// and resource utilisation (flagging hotspots), collects NF notifications,
// and — the paper's headline feature — orchestrates function roaming: when
// a client moves between cells, its NFs seamlessly migrate to the new
// station.
package manager

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/metrics"
	"gnf/internal/packet"
	"gnf/internal/share"
	"gnf/internal/trace"
	"gnf/internal/wire"
)

// Errors returned by the manager API.
var (
	ErrUnknownStation = errors.New("manager: no agent for station")
	ErrUnknownClient  = errors.New("manager: unknown client")
	ErrUnknownChain   = errors.New("manager: unknown chain")
	ErrChainExists    = errors.New("manager: chain already attached")
	ErrNotAttached    = errors.New("manager: client not attached to any station")
)

// historyCap bounds every append-only event history the manager keeps
// (notifications, migration reports, autoscaler events): long-lived
// deployments trim to the newest historyCap entries instead of growing
// without bound.
const historyCap = 4096

// Strategy selects how chains move when a client roams.
type Strategy string

// Migration strategies (ablated in experiment E6).
const (
	// StrategyCold starts an equivalent function on the new cell and
	// removes the old one — §2's baseline mechanism. NF state is lost.
	StrategyCold Strategy = "cold"
	// StrategyStateful additionally checkpoints NF state on the source
	// and restores it on the target before enabling — one-shot
	// stop-and-copy, so downtime grows with state size.
	StrategyStateful Strategy = "stateful"
	// StrategyLive replaces stop-and-copy with a pre-copy pipeline: the
	// source keeps serving while iterative delta rounds sync the target,
	// the freeze window ships only the residual delta, and the target's
	// brownout buffer replays frames parked during the freeze. Downtime is
	// independent of state size.
	StrategyLive Strategy = "live"
	// StrategySteer appears in reports when an offloaded client roams:
	// the chains stay on their cloud site and only the traffic detour
	// moves to the client's new station.
	StrategySteer Strategy = "steer"
)

// ChainSpec is a named NF chain attached to a client.
type ChainSpec struct {
	Name      string         `json:"name"`
	Functions []agent.NFSpec `json:"functions"`
	// MaxRTTMs is the chain's QoS budget: the largest predicted
	// client<->chain round-trip (milliseconds) placement accepts and
	// roaming tolerates before re-placing the chain. 0 = no budget.
	MaxRTTMs float64 `json:"max_rtt_ms,omitempty"`
}

// MaxRTT returns the chain's QoS budget as a duration (0 = none).
func (c ChainSpec) MaxRTT() time.Duration {
	return time.Duration(c.MaxRTTMs * float64(time.Millisecond))
}

// MigrationReport records one chain migration. Downtime is the dark
// window during which no chain instance could serve the client's traffic;
// Total spans the whole control-plane operation.
type MigrationReport struct {
	Client     string        `json:"client"`
	Chain      string        `json:"chain"`
	From       string        `json:"from"`
	To         string        `json:"to"`
	Strategy   Strategy      `json:"strategy"`
	Downtime   time.Duration `json:"downtime"`
	Total      time.Duration `json:"total"`
	StateBytes int           `json:"state_bytes"`
	// Live-migration pipeline detail: pre-copy rounds run while the source
	// still served, bytes shipped by them, bytes of the frozen residual
	// delta, and how many brownout-buffered frames the target replayed on
	// activation. pooled is for the placement table, not the reader: the
	// deployment at To is an attachment to a shared instance. why is the
	// placement rule's explanation when it chose To, for the journal.
	Rounds         int `json:"rounds,omitempty"`
	PrecopyBytes   int `json:"precopy_bytes,omitempty"`
	ResidualBytes  int `json:"residual_bytes,omitempty"`
	pooled         bool
	why            choice
	ReplayedFrames uint64 `json:"replayed_frames,omitempty"`
	Err            string `json:"err,omitempty"`
	// TraceID links the report to its span tree when the triggering handoff
	// was traced ("" otherwise).
	TraceID string `json:"trace_id,omitempty"`
}

// AgentHandle is the manager-side view of one connected agent.
type AgentHandle struct {
	Station string
	// Cloud marks GNFC cloud sites (set at registration).
	Cloud bool
	peer  *wire.Peer
	// tracer is the manager's tracer; callT opens per-RPC client spans on
	// it when the caller's context is recording.
	tracer *trace.Tracer

	mu         sync.Mutex
	lastReport agent.Report
	lastSeen   time.Time
	capacity   uint64

	// Steering group-commit state (steer, batch.go): concurrent steering
	// updates to this agent coalesce into one batched rule install.
	steerMu       sync.Mutex
	steerPending  []steerReq
	steerFlushing bool
}

// LastReport returns the agent's most recent health report and when it
// arrived.
func (h *AgentHandle) LastReport() (agent.Report, time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastReport, h.lastSeen
}

// call forwards an RPC to the agent.
func (h *AgentHandle) call(method string, in, out any) error {
	return h.peer.Call(method, in, out)
}

// callT forwards an RPC under a trace: when tctx is recording, the call
// gets its own client span and the context rides the frame's trace
// metadata, so the agent's server-side spans nest under it. With a
// non-recording context it is exactly call().
func (h *AgentHandle) callT(tctx trace.Context, method string, in, out any) error {
	sp := h.tracer.Child(tctx, "rpc:"+method)
	if sp == nil {
		return h.peer.Call(method, in, out)
	}
	sp.SetAttr("station", h.Station)
	err := h.peer.CallTraced(method, sp.Context().Header(), in, out)
	sp.End(err)
	return err
}

// Ping round-trips a no-op RPC to the agent — liveness probing and
// control-plane latency measurement.
func (h *AgentHandle) Ping() error {
	return h.call(agent.MethodPing, nil, nil)
}

// clientRec tracks one client's placement and attached chains.
type clientRec struct {
	// mu guards every mutable field below. It is a leaf lock: never
	// acquire another lock, issue an RPC, or append to the journal while
	// holding it (see shards.go for the full ordering).
	mu      sync.Mutex
	station string // current station ("" = disconnected)
	// arrived is when the client associated at station (manager clock).
	arrived time.Time
	mac     packet.MAC
	ip      packet.IP
	chains  map[string]ChainSpec
	// placed is the placement table: where every deployment of chains runs
	// (placed.go). rec.place is its only writer.
	placed map[deployment]placement
	// offload names the GNFC cloud site hosting this client's chains
	// ("" = chains live at the edge and roam with the client).
	offload string
	// rendered is the only record of the client's steer and head legs.
	rendered rendering
	// migMu serialises migrations for this client: rapid successive
	// handoffs must not race two migrations of the same chain. Ordering:
	// migMu is taken before any shard or record lock.
	migMu sync.Mutex
}

// Manager is the central controller.
type Manager struct {
	clk clock.Clock
	srv *wire.Server

	// metrics aggregates migration observability (histograms + counters)
	// and owns its locking.
	metrics *metrics.Registry

	// ctrl is the copy-on-write snapshot of read-mostly configuration
	// (agent registry, strategy, topology, failover switches);
	// clients is the sharded client registry; pool is the bounded handoff
	// pipeline and the manager's drain barrier. See shards.go and pool.go.
	ctrl    atomic.Pointer[controlState]
	clients clientTable
	pool    *handoffPool

	// mu serialises snapshot mutations (mutate) and guards the bounded
	// event histories below. It is never held together with a shard or
	// record lock.
	mu            sync.Mutex
	notifications []agent.Alert
	migrations    []MigrationReport
	schedules     []*schedule
	failovers     []FailoverReport

	// Autoscaler state (see autoscaler.go); owns its own lock.
	auto autoscaler

	// tracer stores span trees for every traced control-plane operation;
	// journal is the causally-ordered event log every subsystem appends to.
	// Both own their locking (the journal's lock is a leaf: appending while
	// holding m.mu is safe).
	tracer      *trace.Tracer
	journal     *trace.Journal
	sampleRatio float64

	// Pool sizing, fixed at New (see WithHandoffWorkers).
	poolWorkers int
	poolLimit   int
}

// Option configures New.
type Option func(*Manager)

// WithStrategy sets the roaming migration strategy (default stateful).
func WithStrategy(s Strategy) Option {
	return func(m *Manager) { m.mutate(func(c *controlState) { c.strategy = s }) }
}

// WithHotspotCPU sets the CPU%% threshold for hotspot detection.
func WithHotspotCPU(v float64) Option {
	return func(m *Manager) { m.mutate(func(c *controlState) { c.hotspotCPU = v }) }
}

// WithTraceSampleRatio sets the fraction of client handoffs that get a
// full span tree (default 1: trace every handoff). Sampling is decided at
// the root, deterministically; unsampled handoffs propagate no trace
// metadata and pay nothing downstream.
func WithTraceSampleRatio(r float64) Option { return func(m *Manager) { m.sampleRatio = r } }

// WithHandoffWorkers sets the handoff pool's worker count (default 16).
// 1 serialises every reconcile — the ablation baseline BenchmarkE10
// compares the sharded-parallel pipeline against.
func WithHandoffWorkers(n int) Option { return func(m *Manager) { m.poolWorkers = n } }

// WithStationConcurrency caps concurrent migrations targeting one station
// (default 16): a storm landing on a single station queues at the manager
// instead of flooding the agent with concurrent Deploys.
func WithStationConcurrency(n int) Option { return func(m *Manager) { m.poolLimit = n } }

// New starts a manager listening for agents on addr ("127.0.0.1:0" picks
// an ephemeral port).
func New(clk clock.Clock, addr string, opts ...Option) (*Manager, error) {
	m := &Manager{
		clk:     clk,
		metrics: metrics.NewRegistry(),
		auto: autoscaler{
			policy:        DefaultAutoscalerPolicy,
			lastProcessed: make(map[string]uint64),
		},
		sampleRatio: 1,
	}
	m.ctrl.Store(&controlState{
		agents:     make(map[string]*AgentHandle),
		strategy:   StrategyStateful,
		hotspotCPU: 80,
		failed:     make(map[string]bool),
	})
	for _, o := range opts {
		o(m)
	}
	m.tracer = trace.New(clk, trace.WithOrigin("manager"),
		trace.WithStore(0), trace.WithSampleRatio(m.sampleRatio))
	m.journal = trace.NewJournal(clk, historyCap)
	m.pool = newHandoffPool(m, m.poolWorkers, m.poolLimit)
	srv, err := wire.NewServer(addr, m.acceptAgent)
	if err != nil {
		m.pool.close()
		return nil, err
	}
	m.srv = srv
	return m, nil
}

// Addr returns the manager's listen address for agents.
func (m *Manager) Addr() string { return m.srv.Addr() }

// Tracer exposes the manager's span store (UI, scenario assertions).
func (m *Manager) Tracer() *trace.Tracer { return m.tracer }

// Journal exposes the causally-ordered event log. Layered subsystems
// (reconciler, UI) append and read through it.
func (m *Manager) Journal() *trace.Journal { return m.journal }

// Close disconnects all agents and stops the server. Closing the server
// first fails in-flight agent RPCs fast, so draining the handoff pool
// never waits on a dead wire.
func (m *Manager) Close() error {
	m.StopAutoscaler()
	err := m.srv.Close()
	m.pool.close()
	return err
}

// Strategy returns the active migration strategy.
func (m *Manager) Strategy() Strategy { return m.state().strategy }

// SetStrategy switches the migration strategy at runtime.
func (m *Manager) SetStrategy(s Strategy) {
	m.mutate(func(c *controlState) { c.strategy = s })
}

// acceptAgent wires handlers for a new agent connection.
func (m *Manager) acceptAgent(p *wire.Peer) {
	var station string // set on register; captured by the close handler
	p.Handle(agent.MethodRegister, func(body json.RawMessage) (any, error) {
		var spec agent.RegisterSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		h := &AgentHandle{Station: spec.Station, Cloud: spec.Cloud, peer: p, capacity: spec.MemoryBytes, tracer: m.tracer}
		m.mutate(func(c *controlState) {
			c.agents[spec.Station] = h
			delete(c.failed, spec.Station) // a station may rejoin after failure
		})
		// Rejoin reconciliation: a station that kept its dataplane across a
		// management-plane outage may still host chains the manager has
		// since re-placed elsewhere (failover). Garbage-collect those
		// orphans so the rejoining station converges to the manager's view.
		var stale []string
		for _, announced := range spec.Chains {
			if !m.placedOn(announced, spec.Station) {
				stale = append(stale, announced)
			}
		}
		station = spec.Station
		if len(stale) > 0 {
			m.pool.goTracked(func() {
				for _, chain := range stale {
					m.removeStaleChain(h, chain)
				}
			})
		}
		return map[string]string{"status": "registered"}, nil
	})
	p.HandleNotify(agent.MethodReport, func(body json.RawMessage) {
		var rep agent.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return
		}
		if h := m.state().agents[rep.Station]; h != nil {
			h.mu.Lock()
			h.lastReport = rep
			h.lastSeen = m.clk.Now()
			h.mu.Unlock()
			m.foldReportMetrics(rep)
		}
	})
	// Agents flush finished spans here, synchronously from inside their
	// traced handlers, so a traced call's span tree is complete before the
	// call itself returns.
	p.Handle(agent.MethodSpans, func(body json.RawMessage) (any, error) {
		var batch agent.SpanBatch
		if err := json.Unmarshal(body, &batch); err != nil {
			return nil, err
		}
		m.tracer.Ingest(batch.Spans...)
		return nil, nil
	})
	// Client events arrive as synchronous calls: the agent blocks its
	// handoff path until the manager has applied the placement update and
	// queued the reconcile, so events from concurrent stations apply in
	// true handoff order and WaitIdle (the handoff queued inside
	// applyClientEvent before the response) is sound. The reconciliation
	// RPCs the event triggers run on the handoff pool's workers, so
	// responding here never deadlocks on this peer.
	p.Handle(agent.MethodClientEvent, func(body json.RawMessage) (any, error) {
		var ev agent.ClientEvent
		if err := json.Unmarshal(body, &ev); err != nil {
			return nil, err
		}
		m.applyClientEvent(ev)
		return nil, nil
	})
	// Fire-and-forget notifications are still accepted (older agents).
	// They run on the peer's notify dispatcher: this connection's event
	// order is preserved, but the path is best-effort — under sustained
	// overload the wire layer drops the oldest pending notifications.
	// Reliable, ordered delivery is what the synchronous call path above
	// provides; current agents use it for every client event.
	p.HandleNotify(agent.MethodClientEvent, func(body json.RawMessage) {
		var ev agent.ClientEvent
		if err := json.Unmarshal(body, &ev); err != nil {
			return
		}
		m.applyClientEvent(ev)
	})
	p.HandleNotify(agent.MethodNFAlert, func(body json.RawMessage) {
		var al agent.Alert
		if err := json.Unmarshal(body, &al); err != nil {
			return
		}
		m.recordNotification(al)
	})
	p.OnClose(func(error) {
		if station == "" {
			return
		}
		lost := false
		m.mutate(func(c *controlState) {
			if h, ok := c.agents[station]; ok && h.peer == p {
				delete(c.agents, station)
				lost = true
			}
		})
		// With automatic failover armed, a dropped agent connection
		// immediately triggers re-placement of the chains it hosted.
		if lost && m.state().failoverAuto {
			m.pool.goTracked(func() { m.CheckFailures() })
		}
	})
}

// placedOn reports whether any client's placement puts a chain with this
// name on the station. Chain names are only unique per client, so a name
// may legitimately appear in several records; an announced copy is stale
// only when no record places it here.
func (m *Manager) placedOn(chain, station string) bool {
	found := false
	m.eachPlaced(func(_ string, _ *clientRec, dep deployment, at string) {
		found = found || (at == station && dep.name() == chain)
	})
	return found
}

// removeStaleChain garbage-collects one chain a rejoining station
// announced but no client places there. It serialises against roaming by
// holding every referencing client's migration lock and re-checking the
// placement before issuing the removal — a concurrent reconcile may have
// just migrated the chain onto the rejoining station, in which case the
// copy is no longer stale and must survive.
func (m *Manager) removeStaleChain(h *AgentHandle, chain string) {
	type owner struct {
		client string
		rec    *clientRec
	}
	var owners []owner
	m.clients.forEach(func(client string, rec *clientRec) {
		rec.mu.Lock()
		if _, ok := rec.chains[chain]; ok {
			owners = append(owners, owner{client, rec})
		}
		rec.mu.Unlock()
	})
	// Global lock order (client name) so two concurrent rejoin GCs can
	// never deadlock on overlapping owner sets.
	sort.Slice(owners, func(i, j int) bool { return owners[i].client < owners[j].client })
	for _, o := range owners {
		o.rec.migMu.Lock()
		defer o.rec.migMu.Unlock()
	}
	if !m.placedOn(chain, h.Station) {
		h.call(agent.MethodRemove, agent.ChainRef{Chain: chain}, nil)
	}
}

// agentFor resolves a station's handle off the configuration snapshot
// (lock-free).
func (m *Manager) agentFor(station string) (*AgentHandle, error) {
	h, ok := m.state().agents[station]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownStation, station)
	}
	return h, nil
}

// Agents lists connected stations, sorted.
func (m *Manager) Agents() []string {
	agents := m.state().agents
	out := make([]string, 0, len(agents))
	for s := range agents {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// AgentHandleFor returns the handle for a station (UI access to reports).
func (m *Manager) AgentHandleFor(station string) (*AgentHandle, bool) {
	h, ok := m.state().agents[station]
	return h, ok
}

// ClientStation reports where a client is currently attached.
func (m *Manager) ClientStation(client string) (string, bool) {
	rec := m.clients.get(client)
	if rec == nil {
		return "", false
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.station == "" {
		return "", false
	}
	return rec.station, true
}

// seriesCap bounds the per-station dataplane telemetry series the manager
// folds out of agent reports.
const seriesCap = 256

// foldReportMetrics folds one station report's dataplane telemetry into
// the registry: verdict-cache hit ratio, batched-path run amortisation,
// live flow-cache entries and the frame-pool leak signal, each keyed per
// station for /metrics and `gnfctl top`.
func (m *Manager) foldReportMetrics(rep agent.Report) {
	st, sw, now := rep.Station, rep.Switch, m.clk.Now()
	if tot := sw.CacheHits + sw.CacheMisses; tot > 0 {
		m.metrics.Series("switch.cache_hit_ratio."+st, seriesCap).
			Record(now, float64(sw.CacheHits)/float64(tot))
	}
	if sw.BatchRuns > 0 {
		m.metrics.Series("switch.batch_run_len."+st, seriesCap).
			Record(now, float64(sw.BatchFrames)/float64(sw.BatchRuns))
	}
	m.metrics.Gauge("switch.flow_entries." + st).Set(int64(sw.FlowEntries))
	m.metrics.Gauge("frame_pool.outstanding." + st).Set(rep.FramePoolOutstanding)
	if sw.SampledFrames > 0 {
		m.metrics.Gauge("switch.sampled_frames." + st).Set(int64(sw.SampledFrames))
	}
}

// recordNotification appends an NF alert to the notification log,
// trimming to the newest historyCap entries, and journals it.
func (m *Manager) recordNotification(al agent.Alert) {
	m.mu.Lock()
	m.notifications = append(m.notifications, al)
	if len(m.notifications) > historyCap {
		m.notifications = m.notifications[len(m.notifications)-historyCap:]
	}
	m.mu.Unlock()
	m.journal.Append(trace.Event{
		Type:    trace.EventNotify,
		Subject: al.Notification.Kind,
		Station: al.Station,
		Detail:  al.Notification.Message,
	})
}

// Notifications returns a copy of collected NF alerts.
func (m *Manager) Notifications() []agent.Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]agent.Alert{}, m.notifications...)
}

// ChainPlacement is the manager's record of where one chain runs.
type ChainPlacement struct {
	Client string `json:"client"`
	// Chain is the deployment name: the chain name itself for unsplit
	// chains and split-chain heads, "name#i" for anchored segments.
	Chain   string `json:"chain"`
	Station string `json:"station"`
	// Offload names the cloud site hosting the client's chains when the
	// client is offloaded ("" at the edge).
	Offload string `json:"offload,omitempty"`
	// Segment is the split-chain segment index (0 for unsplit chains and
	// heads). Convergence with the client's station only applies to
	// segment 0 — anchored segments are legitimately elsewhere.
	Segment int `json:"segment,omitempty"`
}

// Placements snapshots where the manager believes every attached chain is
// deployed, sorted by client then chain. The invariant auditor compares
// this view against what agents actually host.
func (m *Manager) Placements() []ChainPlacement {
	var out []ChainPlacement
	m.eachPlaced(func(client string, rec *clientRec, dep deployment, at string) {
		out = append(out, ChainPlacement{
			Client: client, Chain: dep.name(), Station: at,
			Offload: rec.offload, Segment: dep.seg,
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].Chain < out[j].Chain
	})
	return out
}

// Clients lists registered client IDs, sorted.
func (m *Manager) Clients() []string {
	var out []string
	m.clients.forEach(func(client string, _ *clientRec) {
		out = append(out, client)
	})
	sort.Strings(out)
	return out
}

// Migrations returns a copy of completed migration reports.
func (m *Manager) Migrations() []MigrationReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]MigrationReport{}, m.migrations...)
}

// Clock exposes the manager's clock so layered components (the
// reconciler's backoff timers) share the same time source — virtual in
// sims, wall elsewhere.
func (m *Manager) Clock() clock.Clock { return m.clk }

// MetricsSnapshot exports the manager's observability registry — the
// migration downtime/total/state-size histograms and counters behind
// `gnfctl migrations` and GET /api/migrations.
func (m *Manager) MetricsSnapshot() metrics.Snapshot { return m.metrics.Snapshot() }

// Migration histogram buckets: downtimes in milliseconds, state in KiB.
var (
	downtimeBucketsMs = []float64{0.1, 0.5, 1, 5, 10, 25, 50, 100, 250, 500, 1000}
	stateBucketsKiB   = []float64{1, 4, 16, 64, 256, 1024, 4096}
)

// recordMigration appends a report and folds it into the observability
// histograms; every path that completes a migration funnels through here.
func (m *Manager) recordMigration(rep MigrationReport) {
	m.mu.Lock()
	m.migrations = append(m.migrations, rep)
	if len(m.migrations) > historyCap {
		m.migrations = m.migrations[len(m.migrations)-historyCap:]
	}
	m.mu.Unlock()
	m.journal.Append(trace.Event{
		Type:    trace.EventMigrate,
		Subject: rep.Chain,
		Station: rep.To,
		TraceID: rep.TraceID,
		Detail: rep.why.annotate(fmt.Sprintf("client=%s %s->%s strategy=%s downtime=%s",
			rep.Client, rep.From, rep.To, rep.Strategy, rep.Downtime)),
		Err: rep.Err,
	})
	if rep.Err != "" {
		m.metrics.Counter("migration.failed").Inc()
		return
	}
	m.metrics.Counter("migration.count").Inc()
	if rep.ReplayedFrames > 0 {
		m.metrics.Counter("migration.replayed_frames").Add(rep.ReplayedFrames)
	}
	m.metrics.Histogram("migration.downtime_ms", downtimeBucketsMs...).
		Observe(float64(rep.Downtime.Microseconds()) / 1000)
	m.metrics.Histogram("migration.total_ms", downtimeBucketsMs...).
		Observe(float64(rep.Total.Microseconds()) / 1000)
	m.metrics.Histogram("migration.state_kib", stateBucketsKiB...).
		Observe(float64(rep.StateBytes) / 1024)
}

// SetHotspotCPU adjusts the hotspot CPU threshold at runtime.
func (m *Manager) SetHotspotCPU(v float64) {
	m.mutate(func(c *controlState) { c.hotspotCPU = v })
}

// Hotspots returns stations whose last report exceeds the CPU threshold —
// §3: "allowing the provider to detect resource-hotspots".
func (m *Manager) Hotspots() []string {
	st := m.state()
	var out []string
	for _, h := range st.agents {
		rep, seen := h.LastReport()
		if !seen.IsZero() && rep.Usage.CPUPercent >= st.hotspotCPU {
			out = append(out, h.Station)
		}
	}
	sort.Strings(out)
	return out
}

// chainConfigHashes computes the chain's canonical pool hashes for
// placement hints: the whole-chain key first (what agents key shared
// instances on today), then every shorter prefix key. A station hosting a
// pool for a chain that is a prefix of this one therefore also matches —
// the placement-side half of prefix-level dedup.
func chainConfigHashes(spec ChainSpec) []string {
	fns := make([]share.FuncSpec, 0, len(spec.Functions))
	for _, f := range spec.Functions {
		fns = append(fns, share.FuncSpec{Kind: f.Kind, Params: f.Params})
	}
	keys := share.PrefixKeys(fns, nil)
	out := make([]string, 0, len(keys))
	for i := len(keys) - 1; i >= 0; i-- {
		out = append(out, keys[i].ConfigHash)
	}
	return out
}
