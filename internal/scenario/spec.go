// Package scenario is GNF's deterministic scenario engine. A scenario file
// is a topology (stations and their cells, cloud sites, clients and where
// they start), a desired-state document (the "spec" key: the same
// internal/spec document `gnfctl apply -f` and PUT /api/spec take, naming
// each client's chains, offload pin and schedules and the migration
// strategy), a timeline of timed actions (moves, handoffs, station
// failures, random-waypoint mobility, apply-spec documents that replace
// the desired state), and the invariants the run must uphold. Every
// document is installed through the reconciler. The engine executes a
// scenario against core.System on an auto-advancing virtual clock, so
// every modeled latency is a jump of simulated time, runs are
// reproducible from the seed, and the conformance suite replays the whole
// corpus in milliseconds of wall time.
//
// The format exists so that new placements, chains, and mobility patterns
// are new data files, not new test code — see scenarios/ at the repo root
// for the corpus.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	dstate "gnf/internal/spec"
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("150ms", "3s") so scenario files stay readable.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"3s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std returns the standard-library form.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Point is a position on the topology plane, in metres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y,omitempty"`
}

// Cell is one coverage area of a station.
type Cell struct {
	ID     string  `json:"id"`
	Center Point   `json:"center"`
	Radius float64 `json:"radius"`
}

// Station is one GNF edge station.
type Station struct {
	ID          string `json:"id"`
	MemoryBytes uint64 `json:"memory_bytes,omitempty"`
	Position    Point  `json:"position,omitempty"`
	Cells       []Cell `json:"cells"`
}

// Cloud is one GNFC cloud site reachable over an emulated WAN.
type Cloud struct {
	ID string `json:"id"`
	// DelayMs is the one-way WAN delay (default 20ms).
	DelayMs int `json:"delay_ms,omitempty"`
	// RateBps is the WAN rate in bits/s (default 1 Gbit/s).
	RateBps int64 `json:"rate_bps,omitempty"`
}

// Client is one mobile client: identity and starting position. Its chains
// are the spec's business. MAC and IP addressing is assigned
// deterministically from the client's index; IP may be overridden.
type Client struct {
	ID string `json:"id"`
	IP string `json:"ip,omitempty"`
	// At places the client before the spec is installed (omitted = start
	// unassociated; the spec may give chains only to a placed client,
	// since the manager only deploys chains for an attached client).
	At *Point `json:"at,omitempty"`
	// Count > 1 expands this entry into a fleet of Count clients named
	// "<id>-0000".."<id>-NNNN", each placed at At — the mass-mobility
	// population a storm step hands off in one window. A spec client
	// naming the fleet stands for every member, each chain name suffixed
	// like the member's ID (chain names are station-global). Addressing
	// stays index-derived, so IP cannot be combined with Count.
	Count int `json:"count,omitempty"`
}

// Step is one scripted action. At is the virtual-time offset from scenario
// start at which the action runs; the engine advances the virtual clock to
// it (steps must be listed in non-decreasing At order).
type Step struct {
	At     Duration `json:"at,omitempty"`
	Action string   `json:"action"`

	Client    string `json:"client,omitempty"`
	Cell      string `json:"cell,omitempty"`
	To        *Point `json:"to,omitempty"`
	Station   string `json:"station,omitempty"`
	ChainName string `json:"chain_name,omitempty"` // migrate

	// waypoint parameters.
	Rounds   int      `json:"rounds,omitempty"`
	Interval Duration `json:"interval,omitempty"`
	Speed    float64  `json:"speed,omitempty"`
	ArenaW   float64  `json:"arena_w,omitempty"`
	ArenaH   float64  `json:"arena_h,omitempty"`

	// Spec is the desired-state document an apply-spec step installs in
	// place of the previous one; the engine then drives reconcile passes
	// until the fleet converges.
	Spec *dstate.Spec `json:"spec,omitempty"`

	// traffic parameters: the client sends Frames UDP frames spread over
	// Flows distinct flows (default 16) toward the backhaul — the load
	// signal the autoscaler reads off the shared instance serving the
	// client. The engine waits until the client's chains have processed
	// the batch, so the load is fully visible to the next step — unless
	// NoWait is set, which fires the frames and returns immediately so a
	// same-instant handoff can catch them in flight (the brownout-buffer
	// scenarios' trigger).
	Frames int  `json:"frames,omitempty"`
	Flows  int  `json:"flows,omitempty"`
	NoWait bool `json:"no_wait,omitempty"`

	// load parameters: the client drives the batched dataplane harness —
	// Flows concurrent sequence-stamped flows, Rounds frames per flow,
	// flow-controlled into a backhaul sink that accounts per-flow loss and
	// latency (see Expect.MinFlows / MaxLossRatio / MaxP99Ms). Reuses the
	// Flows field above; Rounds is shared with waypoint.
}

// Actions understood by the engine.
const (
	ActMove           = "move"            // move Client to To (re-associates by coverage)
	ActAttach         = "attach"          // force Client onto Cell
	ActDetach         = "detach"          // disassociate Client
	ActMigrate        = "migrate"         // move ChainName of Client to Station
	ActWaypoint       = "waypoint"        // Rounds random-waypoint steps of Interval at Speed
	ActKillStation    = "kill-station"    // drop Station's management link
	ActRestartStation = "restart-station" // reconnect Station's agent
	ActCheckFailures  = "check-failures"  // run the manager's failure scan
	ActEvalSchedules  = "eval-schedules"  // apply activation windows at current virtual time
	ActSettle         = "settle"          // wait for in-flight work (implicit after every step)
	ActTraffic        = "traffic"         // Client sends Frames frames over Flows flows
	ActLoad           = "load"            // Client drives Flows megascale flows for Rounds rounds
	ActAutoscale      = "autoscale"       // run one manager autoscaler evaluation
	ActEvacuate       = "evacuate"        // move every chain off Station (maintenance)
	ActApplySpec      = "apply-spec"      // replace the desired state with Spec, reconcile to convergence
	ActReconcile      = "reconcile"       // run one desired-state reconcile pass
	ActStorm          = "storm"           // hand the whole fleet of Client off onto Cell at once
)

// TopoLink is one declared inter-station link of the topology block.
type TopoLink struct {
	A       string  `json:"a"`
	B       string  `json:"b"`
	DelayMs float64 `json:"delay_ms"`
	RateBps int64   `json:"rate_bps,omitempty"`
}

// Topology declares the station graph: how the stations interconnect and
// at what cost. Either a preset generates the links (over the stations in
// declaration order) or they are listed explicitly — or both, with
// explicit links overlaying the preset. Cloud sites always join as WAN
// spokes (one link to every station, shaped like their tunnels), so they
// never appear in the links list. The engine wires each edge-to-edge link
// as a shaped netem veth and hands the graph to the Manager for RTT-aware
// placement.
type Topology struct {
	// Preset: "ring", "tree" (complete binary, rooted at the first
	// station) or "fat-edge" (full mesh).
	Preset string `json:"preset,omitempty"`
	// HopDelayMs / HopRateBps shape every preset-generated link.
	HopDelayMs float64 `json:"hop_delay_ms,omitempty"`
	HopRateBps int64   `json:"hop_rate_bps,omitempty"`
	// Links declares (or overrides) individual station-to-station links.
	Links []TopoLink `json:"links,omitempty"`
}

// AutoscalerSpec configures the manager's shared-instance autoscaler for
// the run; autoscale script actions evaluate it.
type AutoscalerSpec struct {
	// ScaleOutLoad / ScaleInLoad bound per-replica processed-frame deltas
	// between evaluations (see manager.AutoscalerPolicy).
	ScaleOutLoad uint64 `json:"scale_out_load"`
	ScaleInLoad  uint64 `json:"scale_in_load"`
	MaxReplicas  int    `json:"max_replicas,omitempty"`
}

// Expect declares the outcome a run must satisfy.
type Expect struct {
	MinHandoffs   int `json:"min_handoffs,omitempty"`
	MinMigrations int `json:"min_migrations,omitempty"`
	MinFailovers  int `json:"min_failovers,omitempty"`
	// MinScaleOuts / MinScaleIns require the autoscaler to have grown and
	// shrunk shared replica groups at least this often.
	MinScaleOuts int `json:"min_scale_outs,omitempty"`
	MinScaleIns  int `json:"min_scale_ins,omitempty"`
	// MaxPoolReplicas caps, per station, the total replicas of referenced
	// shared instances at scenario end — the instances-not-clients
	// density property sharing exists for.
	MaxPoolReplicas map[string]int `json:"max_pool_replicas,omitempty"`
	// FinalStations pins clients to stations at scenario end.
	FinalStations map[string]string `json:"final_stations,omitempty"`
	// Placements pins deployments to stations at scenario end. Keys are
	// "client/chain"; a split chain's anchored segments are addressable
	// as "client/chain#1" and so on — how the splitchain scenario proves
	// its aggregation segment never moved while the head roamed.
	Placements map[string]string `json:"placements,omitempty"`
	// Offloaded pins clients to cloud sites at scenario end.
	Offloaded map[string]string `json:"offloaded,omitempty"`
	// ChainEnabled pins a chain's forwarding state at scenario end
	// (activation-schedule scenarios). Keys are chain names, optionally
	// client-qualified as "client/chain" — required when two clients
	// declare same-named chains, since bare names are only unique per
	// client.
	ChainEnabled map[string]bool `json:"chain_enabled,omitempty"`
	// MaxDowntimeMs caps every successful migration's measured dark window
	// (milliseconds); 0 means no cap. The live-migration scenarios use it
	// to pin downtime independent of state size.
	MaxDowntimeMs float64 `json:"max_downtime_ms,omitempty"`
	// ZeroLoss requires that no chain dropped a single frame during the
	// run: every frame that reached a chain was processed or replayed from
	// a brownout buffer, never lost to a migration freeze window.
	ZeroLoss bool `json:"zero_loss,omitempty"`
	// MaxChainRTTMs caps every attached chain's predicted client<->chain
	// round-trip (milliseconds) at scenario end, computed over the
	// topology graph; 0 means no cap. Per-chain max_rtt_ms budgets are
	// checked on top of this, whether or not a cap is set.
	MaxChainRTTMs float64 `json:"max_rtt_ms,omitempty"`
	// MaxScheduleTransitions bounds the total chain enable/disable
	// transitions performed by eval-schedules steps — the no-flapping
	// property of activation windows; 0 means no bound.
	MaxScheduleTransitions int `json:"max_schedule_transitions,omitempty"`
	// AllowViolations lists audit violation kinds tolerated at scenario
	// end (e.g. disabled-chain when a schedule window is closed).
	AllowViolations []string `json:"allow_violations,omitempty"`
	// AllowFailedMigrations tolerates migration reports carrying errors
	// (default: any failed migration fails the scenario).
	AllowFailedMigrations bool `json:"allow_failed_migrations,omitempty"`
	// MinFlows requires the (last) load step's accountant to have seen at
	// least this many distinct flows deliver traffic; 0 means no check.
	MinFlows int `json:"min_flows,omitempty"`
	// MaxLossRatio caps the load step's lost/(lost+received) ratio. A
	// pointer so an explicit 0.0 — no loss tolerated — is expressible;
	// omitted means no check.
	MaxLossRatio *float64 `json:"max_loss_ratio,omitempty"`
	// MaxP99Ms caps the load step's 99th-percentile virtual-clock latency
	// (milliseconds); 0 means no check.
	MaxP99Ms float64 `json:"max_p99_ms,omitempty"`
	// ConvergedWithinMs caps the virtual time every installed document (the
	// spec, each apply-spec step) took to reach convergence, and requires the desired state to still be
	// converged (empty diff) at scenario end; 0 means no check.
	ConvergedWithinMs float64 `json:"converged_within_ms,omitempty"`
	// MaxReconcileActions bounds the total imperative actions all reconcile
	// passes issued — a converging reconciler does bounded work, a
	// thrashing one doesn't; 0 means no bound.
	MaxReconcileActions int `json:"max_reconcile_actions,omitempty"`
	// MinTraceSpans requires some stored trace to hold at least this many
	// spans in one connected tree (trace.ConnectedSize) — the end-to-end
	// tracing property: one handoff yields one span tree spanning manager
	// decision, migration rounds and agent-side steering flips, not a pile
	// of fragments; 0 means no check.
	MinTraceSpans int `json:"min_trace_spans,omitempty"`
	// ExpectEvents lists journal event types (trace.Event*) that must have
	// been recorded at least once by scenario end.
	ExpectEvents []string `json:"expect_events,omitempty"`
	// MaxVirtualMs caps the whole run's virtual elapsed time (milliseconds)
	// — the storm scenarios' convergence bound: all handoffs of the window
	// must complete within a fixed budget of simulated control-plane time;
	// 0 means no bound.
	MaxVirtualMs float64 `json:"max_virtual_ms,omitempty"`
}

// Spec is one complete scenario file.
type Spec struct {
	Name        string          `json:"name"`
	Description string          `json:"description,omitempty"`
	Seed        int64           `json:"seed"`
	Hysteresis  float64         `json:"hysteresis,omitempty"` // metres (default 5)
	Topology    *Topology       `json:"topology,omitempty"`
	Autoscaler  *AutoscalerSpec `json:"autoscaler,omitempty"`
	Stations    []Station       `json:"stations"`
	Clouds      []Cloud         `json:"clouds,omitempty"`
	Clients     []Client        `json:"clients"`
	// Spec is the desired state installed once every client is placed:
	// chains, offload pins, schedules and the migration strategy
	// (stateful when it names none). Schedule times are on the scenario's
	// timeline: T means the scenario's start plus T - clock.Epoch.
	Spec   *dstate.Spec `json:"spec,omitempty"`
	Script []Step       `json:"script,omitempty"`
	Expect Expect       `json:"expect"`
}

// Validate checks structural consistency before a run: unique IDs, known
// references, monotonic script times.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(sp.Stations) == 0 {
		return fmt.Errorf("scenario %s: no stations", sp.Name)
	}
	stations := map[string]bool{}
	cells := map[string]bool{}
	for _, st := range sp.Stations {
		if st.ID == "" {
			return fmt.Errorf("scenario %s: station with empty id", sp.Name)
		}
		if stations[st.ID] {
			return fmt.Errorf("scenario %s: duplicate station %s", sp.Name, st.ID)
		}
		stations[st.ID] = true
		for _, c := range st.Cells {
			if cells[c.ID] {
				return fmt.Errorf("scenario %s: duplicate cell %s", sp.Name, c.ID)
			}
			if c.Radius <= 0 {
				return fmt.Errorf("scenario %s: cell %s has no coverage radius", sp.Name, c.ID)
			}
			cells[c.ID] = true
		}
	}
	sites := map[string]bool{}
	for _, cl := range sp.Clouds {
		if stations[cl.ID] || sites[cl.ID] {
			return fmt.Errorf("scenario %s: duplicate site %s", sp.Name, cl.ID)
		}
		sites[cl.ID] = true
	}
	if tp := sp.Topology; tp != nil {
		switch tp.Preset {
		case "ring", "tree", "fat-edge":
			if tp.HopDelayMs <= 0 {
				return fmt.Errorf("scenario %s: topology preset %q needs hop_delay_ms > 0", sp.Name, tp.Preset)
			}
		case "":
			if len(tp.Links) == 0 {
				return fmt.Errorf("scenario %s: topology needs a preset or links", sp.Name)
			}
		default:
			return fmt.Errorf("scenario %s: unknown topology preset %q (want ring, tree or fat-edge)", sp.Name, tp.Preset)
		}
		for i, l := range tp.Links {
			if !stations[l.A] || !stations[l.B] {
				return fmt.Errorf("scenario %s: topology link %d references unknown station (%q, %q)", sp.Name, i, l.A, l.B)
			}
			if l.A == l.B {
				return fmt.Errorf("scenario %s: topology link %d links %s to itself", sp.Name, i, l.A)
			}
			if l.DelayMs < 0 {
				return fmt.Errorf("scenario %s: topology link %d has negative delay", sp.Name, i)
			}
		}
	}
	clients, placed := map[string]bool{}, map[string]bool{}
	for _, c := range sp.Clients {
		if c.ID == "" {
			return fmt.Errorf("scenario %s: client with empty id", sp.Name)
		}
		if clients[c.ID] {
			return fmt.Errorf("scenario %s: duplicate client %s", sp.Name, c.ID)
		}
		if c.Count < 0 {
			return fmt.Errorf("scenario %s: client %s has negative count", sp.Name, c.ID)
		}
		if c.Count > 1 {
			if c.IP != "" {
				return fmt.Errorf("scenario %s: client %s cannot combine count with a fixed ip", sp.Name, c.ID)
			}
			if c.Count > 60000 {
				return fmt.Errorf("scenario %s: client %s count %d exceeds the addressing space", sp.Name, c.ID, c.Count)
			}
		}
		clients[c.ID] = true
		placed[c.ID] = c.At != nil
	}
	if sp.Spec != nil {
		if err := sp.checkDoc(sp.Spec, "spec", clients, sites); err != nil {
			return err
		}
		for _, dc := range sp.Spec.Clients {
			if len(dc.Chains) > 0 && !placed[dc.ID] {
				return fmt.Errorf("scenario %s: spec gives client %s chains but the client has no initial position (\"at\"); a late joiner gets its chains from an apply-spec step", sp.Name, dc.ID)
			}
		}
	}
	last := Duration(0)
	for i, st := range sp.Script {
		if st.At < last {
			return fmt.Errorf("scenario %s: script step %d goes back in time (%s < %s)",
				sp.Name, i, st.At.Std(), last.Std())
		}
		last = st.At
		switch st.Action {
		case ActMove, ActAttach, ActDetach, ActMigrate, ActWaypoint,
			ActKillStation, ActRestartStation, ActCheckFailures,
			ActEvalSchedules, ActSettle, ActTraffic, ActLoad, ActAutoscale,
			ActEvacuate, ActApplySpec, ActReconcile, ActStorm:
		default:
			return fmt.Errorf("scenario %s: script step %d has unknown action %q", sp.Name, i, st.Action)
		}
		if needsClient(st.Action) && !clients[st.Client] {
			return fmt.Errorf("scenario %s: step %d (%s) references unknown client %q",
				sp.Name, i, st.Action, st.Client)
		}
		switch st.Action {
		case ActKillStation, ActRestartStation, ActEvacuate:
			if !stations[st.Station] {
				return fmt.Errorf("scenario %s: step %d references unknown station %q", sp.Name, i, st.Station)
			}
		case ActMigrate:
			if !stations[st.Station] && !sites[st.Station] {
				return fmt.Errorf("scenario %s: step %d references unknown station %q", sp.Name, i, st.Station)
			}
		case ActAttach, ActStorm:
			if !cells[st.Cell] {
				return fmt.Errorf("scenario %s: step %d references unknown cell %q", sp.Name, i, st.Cell)
			}
		case ActWaypoint:
			if st.Rounds <= 0 || st.Speed <= 0 || st.Interval <= 0 {
				return fmt.Errorf("scenario %s: step %d waypoint needs rounds, speed and interval", sp.Name, i)
			}
			if st.ArenaW <= 0 {
				return fmt.Errorf("scenario %s: step %d waypoint needs arena_w > 0 (arena_h 0 means a 1D corridor)", sp.Name, i)
			}
		case ActTraffic:
			if st.Frames <= 0 {
				return fmt.Errorf("scenario %s: step %d traffic needs frames > 0", sp.Name, i)
			}
			if st.Flows < 0 {
				return fmt.Errorf("scenario %s: step %d traffic flows must be >= 0", sp.Name, i)
			}
		case ActLoad:
			if st.Flows <= 0 || st.Rounds <= 0 {
				return fmt.Errorf("scenario %s: step %d load needs flows > 0 and rounds > 0", sp.Name, i)
			}
		case ActApplySpec:
			if st.Spec == nil {
				return fmt.Errorf("scenario %s: step %d apply-spec needs a spec block", sp.Name, i)
			}
			if err := sp.checkDoc(st.Spec, fmt.Sprintf("step %d", i), clients, sites); err != nil {
				return err
			}
		}
	}
	if as := sp.Autoscaler; as != nil {
		if as.ScaleOutLoad == 0 {
			return fmt.Errorf("scenario %s: autoscaler needs scale_out_load > 0", sp.Name)
		}
		if as.ScaleInLoad >= as.ScaleOutLoad {
			return fmt.Errorf("scenario %s: autoscaler scale_in_load must be below scale_out_load", sp.Name)
		}
		if as.MaxReplicas < 0 {
			return fmt.Errorf("scenario %s: autoscaler max_replicas must be >= 0", sp.Name)
		}
	}
	return nil
}

// checkDoc checks a desired-state document against the scenario it is
// installed into: the document's own rules (spec.Validate: strategy names,
// affinities, budgets, windows) plus the references only the scenario can
// resolve — declared clients or fleets, cloud sites, and a topology for
// every RTT budget.
func (sp *Spec) checkDoc(doc *dstate.Spec, where string, clients, sites map[string]bool) error {
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %s: %w", sp.Name, where, err)
	}
	for _, dc := range doc.Clients {
		if !clients[dc.ID] {
			return fmt.Errorf("scenario %s: %s references unknown client %q", sp.Name, where, dc.ID)
		}
		if dc.Offload != "" && !sites[dc.Offload] {
			return fmt.Errorf("scenario %s: %s references unknown cloud site %q", sp.Name, where, dc.Offload)
		}
		for _, ch := range dc.Chains {
			if ch.MaxRTTMs > 0 && sp.Topology == nil {
				return fmt.Errorf("scenario %s: %s: chain %s declares max_rtt_ms but the scenario has no topology block", sp.Name, where, ch.Name)
			}
		}
	}
	return nil
}

func needsClient(action string) bool {
	switch action {
	case ActMove, ActAttach, ActDetach, ActMigrate, ActTraffic, ActLoad, ActStorm:
		return true
	}
	return false
}

// Load reads and validates one scenario file.
func Load(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// parse decodes one scenario document strictly (an unknown field is an
// error, so a removed or misspelt key cannot be silently ignored) and
// validates it.
func parse(raw []byte) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// LoadDir loads every *.json scenario under dir, sorted by filename.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no scenario files under %s", dir)
	}
	specs := make([]*Spec, 0, len(paths))
	for _, p := range paths {
		sp, err := Load(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}
