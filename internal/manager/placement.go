package manager

import (
	"sort"
	"sync/atomic"
	"time"
)

// StationInfo is a placement-time snapshot of one connected station, built
// from the agent registry and the most recent health reports (§3: the
// Manager "continuously monitoring the health and resource utilization from
// the GNF stations").
type StationInfo struct {
	// Station is the station ID.
	Station string
	// Cloud marks GNFC cloud sites (high capacity, WAN latency).
	Cloud bool
	// Capacity is the station's container memory capacity in bytes
	// (0 = unlimited).
	Capacity uint64
	// CPUPercent is the last reported CPU load.
	CPUPercent float64
	// MemUsed is the last reported container memory use in bytes.
	MemUsed uint64
	// Chains is the number of chains the station currently hosts.
	Chains int
	// PoolHashes lists the config hashes of shared NF instances the
	// station reported hosting — what SharingFirstPlacement matches
	// against to land chains where a compatible instance already runs.
	PoolHashes []string
	// Stale is true when no health report has arrived yet; policies
	// should treat such stations as unknown-load, not idle.
	Stale bool
	// RTTToClient predicts the round-trip between the station currently
	// serving the client (PlacementHint.ClientAt) and this candidate over
	// the modeled topology graph; RTTKnown is false when no topology is
	// installed, the hint names no client station, or no path exists.
	RTTToClient time.Duration
	RTTKnown    bool
}

// hostsPool reports whether the station hosts a shared instance with any
// of the given config hashes.
func (si StationInfo) hostsPool(hashes []string) bool {
	for _, want := range hashes {
		for _, have := range si.PoolHashes {
			if want == have {
				return true
			}
		}
	}
	return false
}

// memRatio returns fractional memory pressure (0 when capacity unlimited).
func (si StationInfo) memRatio() float64 {
	if si.Capacity == 0 {
		return 0
	}
	return float64(si.MemUsed) / float64(si.Capacity)
}

// PlacementHint carries per-decision context into a Placement policy.
type PlacementHint struct {
	// Client owns the chain being placed.
	Client string
	// Chain is the chain name.
	Chain string
	// Prefer is the client's current station ("" when disconnected);
	// client-local policies pick it when alive.
	Prefer string
	// AllowCloud permits GNFC cloud sites as targets. Roaming and
	// failover keep chains at the edge unless the operator opted in.
	AllowCloud bool
	// ConfigHashes carries the chain's canonical configuration hashes (the
	// pool keys its shareable members would share under); sharing-aware
	// policies prefer stations already hosting a compatible instance.
	ConfigHashes []string
	// ClientAt is the station currently serving the client — the reference
	// point RTT predictions are computed from. Unlike Prefer it may name a
	// station excluded from the candidate list (evacuating the client's
	// own station) or one already declared dead (failover).
	ClientAt string
	// MaxRTT is the chain's QoS budget (ChainSpec.MaxRTTMs); QoSPlacement
	// rejects candidates whose predicted RTT exceeds it (0 = no budget).
	MaxRTT time.Duration
}

// Placement chooses the hosting station for a chain among live candidates.
// It is consulted wherever the client's own station is not the forced
// answer: evacuation, failover re-placement and cloud offload. Candidates
// are pre-filtered (alive, not excluded) and sorted by station name, so
// policies are deterministic given equal inputs.
type Placement interface {
	// Name identifies the policy in reports and ablation benches.
	Name() string
	// Pick returns the chosen station; ok=false when no candidate suits.
	Pick(candidates []StationInfo, hint PlacementHint) (string, bool)
}

// ClientLocalPlacement is GNF's default policy (§3: the Manager "notifies
// the closest Agent"): host on the client's current station when it is a
// live candidate, otherwise fall back to least-loaded.
type ClientLocalPlacement struct{}

// Name implements Placement.
func (ClientLocalPlacement) Name() string { return "client-local" }

// Pick implements Placement.
func (ClientLocalPlacement) Pick(cands []StationInfo, hint PlacementHint) (string, bool) {
	if hint.Prefer != "" {
		for _, c := range cands {
			if c.Station == hint.Prefer {
				return c.Station, true
			}
		}
	}
	return LeastLoadedPlacement{}.Pick(cands, hint)
}

// LeastLoadedPlacement picks the station with the lowest CPU load, breaking
// ties by memory pressure and then by name. Stations that have not
// reported yet lose to stations with known load.
type LeastLoadedPlacement struct{}

// Name implements Placement.
func (LeastLoadedPlacement) Name() string { return "least-loaded" }

// Pick implements Placement.
func (LeastLoadedPlacement) Pick(cands []StationInfo, hint PlacementHint) (string, bool) {
	if !hint.AllowCloud {
		cands = edgeOnly(cands)
	}
	if len(cands) == 0 {
		return "", false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if lessLoaded(c, best) {
			best = c
		}
	}
	return best.Station, true
}

// lessLoaded orders stations by (stale, CPU, memory pressure, name).
func lessLoaded(a, b StationInfo) bool {
	if a.Stale != b.Stale {
		return !a.Stale
	}
	if a.CPUPercent != b.CPUPercent {
		return a.CPUPercent < b.CPUPercent
	}
	if ar, br := a.memRatio(), b.memRatio(); ar != br {
		return ar < br
	}
	return a.Station < b.Station
}

// SpreadPlacement picks the station hosting the fewest chains — it
// maximises function-to-host dispersion so a single station failure takes
// out the fewest clients.
type SpreadPlacement struct{}

// Name implements Placement.
func (SpreadPlacement) Name() string { return "spread" }

// Pick implements Placement.
func (SpreadPlacement) Pick(cands []StationInfo, hint PlacementHint) (string, bool) {
	if !hint.AllowCloud {
		cands = edgeOnly(cands)
	}
	if len(cands) == 0 {
		return "", false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Chains < best.Chains ||
			(c.Chains == best.Chains && lessLoaded(c, best)) {
			best = c
		}
	}
	return best.Station, true
}

// RoundRobinPlacement rotates deterministically through the candidate list;
// cheap and oblivious, it is the ablation baseline against load-aware
// policies.
type RoundRobinPlacement struct {
	next atomic.Uint64
}

// Name implements Placement.
func (*RoundRobinPlacement) Name() string { return "round-robin" }

// Pick implements Placement.
func (p *RoundRobinPlacement) Pick(cands []StationInfo, hint PlacementHint) (string, bool) {
	if !hint.AllowCloud {
		cands = edgeOnly(cands)
	}
	if len(cands) == 0 {
		return "", false
	}
	i := p.next.Add(1) - 1
	return cands[i%uint64(len(cands))].Station, true
}

// SharingFirstPlacement prefers stations that already host a shared NF
// instance compatible with the chain being placed (matched by the config
// hashes in the hint): landing there costs a refcount instead of a
// container boot ("Reducing Service Deployment Cost Through VNF Sharing").
// Among compatible hosts the least-loaded wins; with no compatible host —
// or no hashes in the hint — it defers to Fallback (default
// ClientLocalPlacement, preserving GNF's client-local bias).
type SharingFirstPlacement struct {
	Fallback Placement
}

// Name implements Placement.
func (SharingFirstPlacement) Name() string { return "sharing-first" }

// Pick implements Placement.
func (p SharingFirstPlacement) Pick(cands []StationInfo, hint PlacementHint) (string, bool) {
	if !hint.AllowCloud {
		cands = edgeOnly(cands)
	}
	if len(hint.ConfigHashes) > 0 {
		var hosts []StationInfo
		for _, c := range cands {
			if c.hostsPool(hint.ConfigHashes) {
				hosts = append(hosts, c)
			}
		}
		if len(hosts) > 0 {
			return LeastLoadedPlacement{}.Pick(hosts, PlacementHint{AllowCloud: true})
		}
	}
	fb := p.Fallback
	if fb == nil {
		fb = ClientLocalPlacement{}
	}
	return fb.Pick(cands, hint)
}

// CloudFirstPlacement prefers GNFC cloud sites (capacity first, WAN latency
// tolerated), falling back to the edge when no cloud site is connected.
// It is the offload default.
type CloudFirstPlacement struct{}

// Name implements Placement.
func (CloudFirstPlacement) Name() string { return "cloud-first" }

// Pick implements Placement.
func (CloudFirstPlacement) Pick(cands []StationInfo, hint PlacementHint) (string, bool) {
	var clouds []StationInfo
	for _, c := range cands {
		if c.Cloud {
			clouds = append(clouds, c)
		}
	}
	if len(clouds) > 0 {
		return LeastLoadedPlacement{}.Pick(clouds, PlacementHint{AllowCloud: true})
	}
	return LeastLoadedPlacement{}.Pick(cands, hint)
}

// edgeOnly filters cloud sites out of the candidate list.
func edgeOnly(cands []StationInfo) []StationInfo {
	out := cands[:0:0]
	for _, c := range cands {
		if !c.Cloud {
			out = append(out, c)
		}
	}
	return out
}

// SetPlacement swaps the placement policy consulted by evacuation,
// failover and offload (default ClientLocalPlacement).
func (m *Manager) SetPlacement(p Placement) {
	m.mutate(func(c *controlState) { c.placement = p })
}

// Placement returns the active placement policy.
func (m *Manager) Placement() Placement {
	return m.state().placement
}

// StationInfos snapshots every connected station except those listed in
// exclude, sorted by station name. It is the candidate list handed to
// Placement policies and is exported for the UI's capacity view.
func (m *Manager) StationInfos(exclude ...string) []StationInfo {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	chainCount := make(map[string]int)
	m.eachPlaced(func(_ string, _ *clientRec, _ deployment, at string) { chainCount[at]++ })
	agents := m.state().agents
	handles := make([]*AgentHandle, 0, len(agents))
	for st, h := range agents {
		if !skip[st] {
			handles = append(handles, h)
		}
	}

	out := make([]StationInfo, 0, len(handles))
	for _, h := range handles {
		rep, seen := h.LastReport()
		si := StationInfo{
			Station:    h.Station,
			Cloud:      h.Cloud,
			Capacity:   h.capacity,
			CPUPercent: rep.Usage.CPUPercent,
			MemUsed:    rep.Usage.MemoryBytes,
			Chains:     chainCount[h.Station],
			Stale:      seen.IsZero(),
		}
		for _, ps := range rep.Pools {
			if ps.Refs > 0 || ps.Replicas > 0 {
				si.PoolHashes = append(si.PoolHashes, ps.ConfigHash)
			}
		}
		out = append(out, si)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Station < out[j].Station })
	return out
}

// place runs the active policy over live candidates, annotated with RTT
// predictions when a topology graph is installed.
func (m *Manager) place(hint PlacementHint, exclude ...string) (string, bool) {
	cands := m.StationInfos(exclude...)
	st := m.state()
	p, g := st.placement, st.topo
	if p == nil {
		p = ClientLocalPlacement{}
	}
	annotateRTT(g, cands, hint.ClientAt)
	return p.Pick(cands, hint)
}
