package manager

import (
	"fmt"
	"sort"
	"time"

	"gnf/internal/topology"
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
	// station reported hosting — what the placement rule's pool term
	// matches to land chains where a compatible instance already runs.
	PoolHashes []string
	// Stale is true when no health report has arrived yet; placement
	// treats such stations as unknown-load, not idle.
	Stale bool
	// RTTToClient predicts the round-trip between the station serving the
	// client and this candidate over the modeled topology graph; RTTKnown
	// is false when no topology is installed, the client has no station,
	// or no path exists.
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

// cloudPenalty is added to a cloud site's predicted RTT in the rule's RTT
// term: with equal predictions the edge must win, since the matrix cannot
// price the cloud's jitter and shared-WAN variance.
const cloudPenalty = 10 * time.Millisecond

// placementHint is what the placement rule knows about the chain it places.
type placementHint struct {
	// prefer is the client's current station ("" when it is no candidate).
	prefer string
	// allowCloud admits GNFC cloud sites: roaming and failover keep chains
	// at the edge.
	allowCloud bool
	// hashes are the chain's pool keys (chainConfigHashes).
	hashes []string
	// clientAt is the station serving the client, where RTT predictions
	// start. Unlike prefer it may name an excluded station (evacuating the
	// client's own) or a dead one (failover).
	clientAt string
	// maxRTT is the chain's RTT budget (0 = none).
	maxRTT time.Duration
}

// hintFor is what every displacement tells the rule about the chain; callers
// set prefer where the client's own station is a candidate.
func hintFor(spec ChainSpec, clientAt string) placementHint {
	return placementHint{hashes: chainConfigHashes(spec), clientAt: clientAt, maxRTT: spec.MaxRTT()}
}

// The rule's score terms, most significant first.
const (
	termClient = iota // the client's own station
	termPool          // a compatible shared instance already runs there
	termRTT           // predicted RTT, clouds penalised; known beats unknown
	termLoad          // stale last, then CPU, then memory pressure
	termName
)

// beats compares two candidates term by term: the first term on which they
// differ, and whether a wins it.
func beats(a, b StationInfo, h placementHint) (term int, win bool) {
	if ap, bp := a.Station == h.prefer, b.Station == h.prefer; ap != bp {
		return termClient, ap
	}
	if ap, bp := a.hostsPool(h.hashes), b.hostsPool(h.hashes); ap != bp {
		return termPool, ap
	}
	if a.RTTKnown != b.RTTKnown {
		return termRTT, a.RTTKnown
	}
	if ar, br := penalised(a), penalised(b); a.RTTKnown && ar != br {
		return termRTT, ar < br
	}
	if a.Stale != b.Stale {
		return termLoad, !a.Stale
	}
	if a.CPUPercent != b.CPUPercent {
		return termLoad, a.CPUPercent < b.CPUPercent
	}
	if ar, br := a.memRatio(), b.memRatio(); ar != br {
		return termLoad, ar < br
	}
	return termName, a.Station < b.Station
}

// penalised is the RTT term's key: the predicted RTT, plus cloudPenalty on a
// cloud site.
func penalised(si StationInfo) time.Duration {
	if si.Cloud {
		return si.RTTToClient + cloudPenalty
	}
	return si.RTTToClient
}

// choice is the placement rule's answer, with its own explanation.
type choice struct {
	station string
	// why is the term that decided over the runner-up: "client", "pool",
	// "rtt 4ms", "load" or "name"; "only" when no rival was left. A
	// choice no candidate's budget allowed ends ", over budget".
	why string
	// rejected is the first candidate a filter turned away, with the
	// reason ("" = none).
	rejected string
}

// annotate appends the choice to a journal event's detail:
// "… why=rtt 4ms; st-d: over budget 12ms>9ms". A zero choice adds nothing.
func (c choice) annotate(detail string) string {
	switch {
	case c.why == "":
		return detail
	case c.rejected == "":
		return detail + " why=" + c.why
	}
	return detail + " why=" + c.why + "; " + c.rejected
}

// pick is the placement rule: where a chain goes when wantAt cannot name
// its station (evacuation, failover) and which cloud site a hotspot's client
// bursts to. Candidates are sorted by name, so it is deterministic.
//
// Hard filters, in order: no cloud site unless allowCloud; with a budget,
// a predicted RTT known and within it. When the budget turns every
// candidate away, the best cloud site takes the chain if clouds are
// allowed, otherwise the best of the rest, and the choice says so.
//
// The survivors are scored lexicographically (beats): the client's own
// station, a compatible pool already present, predicted RTT, load, name.
// ok is false when no candidate is left.
func pick(cands []StationInfo, h placementHint) (choice, bool) {
	var c choice
	reject := func(si StationInfo, why string) {
		if c.rejected == "" {
			c.rejected = si.Station + ": " + why
		}
	}
	var fit, over, clouds []StationInfo
	for _, si := range cands {
		switch {
		case si.Cloud && !h.allowCloud:
			reject(si, "cloud")
			continue
		case h.maxRTT <= 0:
			fit = append(fit, si)
		case !si.RTTKnown:
			reject(si, "rtt unknown")
			over = append(over, si)
		case si.RTTToClient > h.maxRTT:
			reject(si, fmt.Sprintf("over budget %v>%v", si.RTTToClient, h.maxRTT))
			over = append(over, si)
		default:
			fit = append(fit, si)
		}
		if si.Cloud {
			clouds = append(clouds, si)
		}
	}
	from, suffix := fit, ""
	if len(fit) == 0 {
		from, suffix = over, ", over budget"
		if len(clouds) > 0 {
			from = clouds
		}
	}
	if len(from) == 0 {
		return c, false
	}
	best := from[0]
	for _, si := range from[1:] {
		if _, win := beats(si, best, h); win {
			best = si
		}
	}
	// The deciding term is where the winner parts from the runner-up: the
	// rival that agrees with it longest. With no rival left, the budget
	// decided if it turned any away.
	term := -1
	for _, si := range from {
		if t, _ := beats(best, si, h); si.Station != best.Station && t > term {
			term = t
		}
	}
	if term < 0 && len(fit) > 0 && len(over) > 0 {
		term = termRTT
	}
	c.station = best.Station
	switch term {
	case termClient:
		c.why = "client"
	case termPool:
		c.why = "pool"
	case termRTT:
		c.why = "rtt " + best.RTTToClient.String()
	case termLoad:
		c.why = "load"
	case termName:
		c.why = "name"
	default:
		c.why = "only"
	}
	c.why += suffix
	return c, true
}

// StationInfos snapshots every connected station except those listed in
// exclude, sorted by station name. It is the placement rule's candidate
// list and the UI's capacity view.
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

// place runs the placement rule over cands, annotated with RTT predictions
// when a topology graph is installed; without one the budget goes unchecked.
func (m *Manager) place(cands []StationInfo, h placementHint) (choice, bool) {
	g := m.state().topo
	if g == nil {
		h.maxRTT = 0
	} else if h.clientAt != "" {
		for i := range cands {
			rtt, ok := g.RTT(topology.StationID(h.clientAt), topology.StationID(cands[i].Station))
			cands[i].RTTToClient, cands[i].RTTKnown = rtt, ok
		}
	}
	return pick(cands, h)
}

// SetTopology installs the station graph used to predict client<->chain
// RTTs. The placement rule ranks on the prediction and enforces chains'
// MaxRTT budgets; roaming lets a budgeted chain lag behind its client while
// the old station still meets the budget. nil clears the graph.
func (m *Manager) SetTopology(g *topology.Graph) {
	m.mutate(func(c *controlState) { c.topo = g })
}

// Topology returns the installed station graph (nil when none).
func (m *Manager) Topology() *topology.Graph {
	return m.state().topo
}
