package agent

import (
	"strconv"
	"strings"

	"gnf/internal/metrics"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/trace"
)

// SegmentDeployName returns the deployment name of segment i of chain.
// The head keeps the chain's own name, so every single-placement code
// path — migration, brownout replay, sharing — applies to it
// unchanged; later segments append "#i".
func SegmentDeployName(chain string, i int) string {
	if i == 0 {
		return chain
	}
	return chain + "#" + strconv.Itoa(i)
}

// ParseSegmentName splits a deployment name back into its chain name and
// segment index (0 for the head and for unsplit chains).
func ParseSegmentName(dep string) (chain string, seg int) {
	i := strings.LastIndexByte(dep, '#')
	if i < 0 {
		return dep, 0
	}
	n, err := strconv.Atoi(dep[i+1:])
	if err != nil || n <= 0 {
		return dep, 0
	}
	return dep[:i], n
}

// Wire method names spoken between Manager and Agent. Methods prefixed
// "agent." are served by the Agent (Manager calls down); "manager." methods
// are served by the Manager (Agent calls/notifies up).
const (
	// Agent-served methods.
	MethodDeploy = "agent.deploy"
	MethodRemove = "agent.remove"
	// A move's state rides three methods: Checkpoint exports what the
	// source's chain dirtied since the session's last export, Restore merges
	// it on the target, and Enable flips the target live and replays what it
	// parked meanwhile.
	MethodCheckpoint = "agent.checkpoint"
	MethodRestore    = "agent.restore"
	MethodEnable     = "agent.enable"
	MethodDisable    = "agent.disable"
	MethodPrefetch   = "agent.prefetch" // unserved (Deploy resolves its images); the benchmark's scripted agents register it
	MethodStats      = "agent.stats"
	MethodPing       = "agent.ping"
	MethodSteer      = "agent.steer"
	// MethodSteerBatch installs many steering detours in one call: the
	// manager's per-agent coalescer collapses a storm of clients landing on
	// one station into a single rule-install RPC.
	MethodSteerBatch = "agent.steerBatch"
	MethodUnsteer    = "agent.unsteer"
	MethodRetarget   = "agent.retarget"
	MethodScalePool  = "agent.scalePool"

	// Manager-served methods.
	MethodRegister    = "manager.register"
	MethodReport      = "manager.report"      // notify
	MethodClientEvent = "manager.clientEvent" // notify
	MethodNFAlert     = "manager.nfAlert"     // notify
	// MethodSpans flushes finished agent-side trace spans up to the
	// manager's span store. Traced agents call it synchronously from
	// inside the RPC handler, before the response, so the manager's span
	// tree is complete by the time its traced call returns.
	MethodSpans = "manager.spans"
)

// NFSpec describes one function of a chain to instantiate via the NF
// registry.
type NFSpec struct {
	Kind   string    `json:"kind"`
	Name   string    `json:"name"`
	Params nf.Params `json:"params,omitempty"`
	// Affinity tags where this function wants to run when its chain is
	// split into per-station segments: "near-client" pins it to the
	// client's current station (it roams with the client), "aggregate"
	// anchors it on a stable aggregation station, "cloud-ok" permits a
	// GNFC cloud site. Empty means "follow the chain" — a chain whose
	// functions all carry the empty tag is never split.
	Affinity string `json:"affinity,omitempty"`
}

// Leg is one side of a deployment: where its frames come from or go to.
// The zero Leg is this station's own edge — the client's access port on the
// ingress side, the uplink on the egress side. Another station's name is the
// tunnel to it; Peer then names the deployment at the far end, which is what
// the manager re-splices when either end moves. This station's own name plus
// a Peer is a port-to-port wire to that deployment, both directions of which
// belong to the upstream side (the one whose egress leg it is).
type Leg struct {
	Station string `json:"station,omitempty"`
	Peer    string `json:"peer,omitempty"`
}

// DeploySpec asks an Agent to run a chain for one client's traffic.
type DeploySpec struct {
	Chain  string `json:"chain"` // unique deployment name
	Client string `json:"client"`
	// ClientMAC/ClientIP are what rules on a tunnel match the client by. The
	// agent learns them from its own client table when the client is
	// associated here; a deployment that never sees its client (an offloaded
	// chain, an anchored segment) must be told.
	ClientMAC packet.MAC `json:"client_mac"`
	ClientIP  packet.IP  `json:"client_ip"`
	Functions []NFSpec   `json:"functions"`
	// Enabled starts forwarding immediately (default for fresh deploys);
	// migrations deploy disabled, restore state, then enable.
	Enabled bool `json:"enabled"`
	// Ingress and Egress are the deployment's two legs: toward the client
	// and toward the Internet. The zero value of both — a local whole chain —
	// takes the client's traffic off its access port and hands it to the
	// uplink.
	Ingress Leg `json:"ingress,omitzero"`
	Egress  Leg `json:"egress,omitzero"`
}

// DeployResult reports what the agent built.
type DeployResult struct {
	Chain        string   `json:"chain"`
	Containers   []string `json:"containers"`
	AttachMillis int64    `json:"attach_millis"` // modeled attach latency
	// Shared marks an attachment to a pooled instance; Containers then
	// lists the instance's (shared) containers rather than fresh ones.
	Shared bool `json:"shared,omitempty"`
}

// ChainRef names a deployment on an agent. Brownout applies to
// MethodDisable only: the chain freezes with its brownout buffer armed
// (migration freeze) instead of dropping in-flight frames (schedule
// windows, which must police out-of-window traffic).
type ChainRef struct {
	Chain    string `json:"chain"`
	Brownout bool   `json:"brownout,omitempty"`
}

// CheckpointSpec asks a source agent for the next export of a chain's state:
// what the chain dirtied since the session's previous export, or all of it
// on a session's first. Restart discards any existing session first — an
// export since nothing — so a fresh move never resumes a stale epoch vector.
type CheckpointSpec struct {
	Chain   string `json:"chain"`
	Restart bool   `json:"restart,omitempty"`
}

// The two state-carrying messages keep State out of their JSON: it rides the
// frame's raw section (package wire), so a chain's state crosses the manager
// as the bytes the source wrote — never base64'd, never scanned — and the
// buffer a CheckpointResult was read into is the one the RestoreSpec built
// from it is written out of.

// CheckpointResult carries one export of chain state; len(State) is the
// caller's convergence signal.
type CheckpointResult struct {
	Chain string `json:"chain"`
	State []byte `json:"-"`
	Round int    `json:"round"` // 1-based export number within the session
}

func (r CheckpointResult) WireBlob() []byte      { return r.State }
func (r *CheckpointResult) SetWireBlob(b []byte) { r.State = b }

// PreCopyResult is CheckpointResult under the name of Agent.PreCopy.
type PreCopyResult = CheckpointResult

// RestoreSpec merges exported chain state into the target's chain.
type RestoreSpec struct {
	Chain string `json:"chain"`
	State []byte `json:"-"`
}

func (s RestoreSpec) WireBlob() []byte { return s.State }

// EnableResult reports a deployment going live: how many brownout-buffered
// frames were replayed through the chain, making the handoff loss-free.
type EnableResult struct {
	Chain    string `json:"chain"`
	Replayed uint64 `json:"replayed"`
}

// RegisterSpec announces an agent to the manager.
type RegisterSpec struct {
	Station     string `json:"station"`
	MemoryBytes uint64 `json:"memory_bytes"`
	// Cloud marks the station as a GNFC cloud site: high capacity behind
	// a WAN link, eligible for offload placement but not client
	// association.
	Cloud bool `json:"cloud,omitempty"`
	// Chains lists deployments the agent already hosts (a rejoin after a
	// management-plane outage); the manager garbage-collects any it has
	// re-placed elsewhere meanwhile.
	Chains []string `json:"chains,omitempty"`
}

// Report is the periodic health/resource report of §3 ("reporting
// periodically the state of the device").
type Report struct {
	Station string                `json:"station"`
	Usage   metrics.ResourceUsage `json:"usage"`
	Switch  SwitchStats           `json:"switch"`
	Chains  []ChainStatus         `json:"chains"`
	Pools   []PoolStatus          `json:"pools,omitempty"`
	// Detours lists the clients whose traffic this station detours into a
	// tunnel (Steer), sorted.
	Detours []string `json:"detours,omitempty"`
	// RetiredDrops carries the accumulated drop counters of chains already
	// torn down on this station, so loss accounting survives migrations.
	RetiredDrops uint64 `json:"retired_drops,omitempty"`
	// FramePoolOutstanding is the process-wide borrowed-minus-returned
	// pooled-frame count — the dataplane leak signal, surfaced per report
	// so the manager can watch it trend.
	FramePoolOutstanding int64 `json:"frame_pool_outstanding,omitempty"`
	UnixNano             int64 `json:"unix_nano"`
}

// PoolStatus describes one shared NF instance on a station: its pool key,
// how many deployments reference it, how many replicas serve it, and the
// aggregate frames processed (the autoscaler's load signal).
type PoolStatus struct {
	Kinds      string `json:"kinds"`       // chain kind signature, e.g. "firewall+counter"
	ConfigHash string `json:"config_hash"` // canonical configuration digest
	Refs       int    `json:"refs"`        // attached deployments (0 = idle, in grace)
	Replicas   int    `json:"replicas"`
	Processed  uint64 `json:"processed"` // frames, summed over replicas
	Dropped    uint64 `json:"dropped"`
	// PerReplica breaks Processed down per replica, in replica order.
	PerReplica []uint64 `json:"per_replica,omitempty"`
}

// ScalePoolSpec asks an agent to resize a shared instance's replica group.
// Replicas must be >= 1; scale-in drains (removes the replica from the
// steering group so flows re-hash away) before tearing the replica down.
type ScalePoolSpec struct {
	Kinds      string `json:"kinds"`
	ConfigHash string `json:"config_hash"`
	Replicas   int    `json:"replicas"`
}

// SwitchStats mirrors netem.SwitchStats for the wire. Beyond the classic
// forwarding counters it carries the dataplane telemetry the manager folds
// into its metrics registry: verdict-cache hits/misses (hit ratio), live
// flow-cache entries, and the batched path's run amortisation counters
// (frames per run = BatchFrames / BatchRuns).
type SwitchStats struct {
	RxFrames    uint64 `json:"rx_frames"`
	Dropped     uint64 `json:"dropped"`
	Flooded     uint64 `json:"flooded"`
	Redirects   uint64 `json:"redirects"`
	Rules       int    `json:"rules"`
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	FlowEntries int    `json:"flow_entries,omitempty"`
	BatchFrames uint64 `json:"batch_frames,omitempty"`
	BatchRuns   uint64 `json:"batch_runs,omitempty"`
	// SampledFrames counts frames captured by the switch's 1-in-N trace
	// sampler (0 when sampling is disabled).
	SampledFrames uint64 `json:"sampled_frames,omitempty"`
}

// ChainStatus summarises one deployment for the UI.
type ChainStatus struct {
	Chain     string            `json:"chain"`
	Client    string            `json:"client"`
	Enabled   bool              `json:"enabled"`
	Processed uint64            `json:"processed"`
	Dropped   uint64            `json:"dropped"`
	NFStats   map[string]uint64 `json:"nf_stats,omitempty"`
	// Shared marks a deployment served by a pooled instance; Processed and
	// Dropped then aggregate over every sharer, and ConfigHash names the
	// pool entry serving it.
	Shared     bool   `json:"shared,omitempty"`
	ConfigHash string `json:"config_hash,omitempty"`
	// Ingress and Egress are the deployment's live legs: what it was
	// deployed with, or what the last Retarget made of them.
	Ingress Leg `json:"ingress,omitzero"`
	Egress  Leg `json:"egress,omitzero"`
}

// ClientEvent reports client (dis)connection to the manager (§3: the Agent
// is responsible for "notifying the Manager of clients' (dis)connection").
type ClientEvent struct {
	Station   string `json:"station"`
	Client    string `json:"client"`
	Connected bool   `json:"connected"`
	// MAC and IP carry the client's addressing on connect events so the
	// Manager can deploy remote (offloaded) chains, whose hosting agent
	// has no local client table entry to resolve them from.
	MAC packet.MAC `json:"mac,omitempty"`
	IP  packet.IP  `json:"ip,omitempty"`
}

// SteerSpec asks a client's station to steer the client's traffic into the
// tunnel toward Via, the station its chains' heads run on.
type SteerSpec struct {
	Client string `json:"client"`
	Via    string `json:"via"`
}

// SteerBatchSpec carries many steering detours in one MethodSteerBatch
// call. Rules apply in order; the first failure aborts the rest.
type SteerBatchSpec struct {
	Rules []SteerSpec `json:"rules"`
}

// UnsteerSpec removes a client's detour.
type UnsteerSpec struct {
	Client string `json:"client"`
}

// RetargetSpec re-points a deployment's legs; a nil leg stays as it is: a
// head's ingress leg onto the tunnel to its client's station, or a split
// chain's neighbour after a segment that moved.
type RetargetSpec struct {
	Chain   string `json:"chain"`
	Ingress *Leg   `json:"ingress,omitempty"`
	Egress  *Leg   `json:"egress,omitempty"`
}

// Alert relays an NF notification with its origin station.
type Alert struct {
	Station      string          `json:"station"`
	Notification nf.Notification `json:"notification"`
}

// SpanBatch carries finished agent-side trace spans to the manager
// (MethodSpans).
type SpanBatch struct {
	Station string             `json:"station"`
	Spans   []trace.SpanRecord `json:"spans"`
}
