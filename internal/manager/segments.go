// Chain partitioning: a chain is its segments.
//
// A chain whose functions carry placement affinities is split into
// contiguous segments, each deployed on its own station and stitched to
// its neighbours over the same shaped tunnels GNFC offload uses; a chain
// without affinities is the one-segment case of the same thing.
//
//   - SegmentsOf partitions the function list into runs of equal
//     effective affinity (an empty tag inherits its predecessor's).
//   - Where each segment belongs is the placement rule's answer (wantAt,
//     placed.go): the head (index 0) follows the client, "aggregate"
//     segments anchor on the aggregation hub — the edge station minimising
//     its worst-case RTT to every other edge station — and "cloud-ok"
//     segments prefer a GNFC cloud site.
//   - segmentDeploy renders any segment as a deploy spec; its legs name the
//     neighbouring segments, which is what has a move re-splice them
//     (moveSegment, move.go). Attaching moves every segment from nowhere,
//     tail first (a port-to-port egress leg needs its far end), head last.
//
// Deployment naming: segment 0 deploys under the chain's own name, segment
// i>0 as "name#i" (agent.SegmentDeployName).
//
// Lock ordering is unchanged from shards.go: rec.migMu > shard.mu >
// rec.mu, and rec.mu stays a leaf — the rule reads the control snapshot
// lock-free and all RPCs happen outside rec.mu.
package manager

import (
	"fmt"
	"sort"
	"time"

	"gnf/internal/agent"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/trace"
)

// Segment placement affinities (agent.NFSpec.Affinity).
const (
	// AffinityNearClient pins a function to the client's current station;
	// it roams with the client on every handoff.
	AffinityNearClient = "near-client"
	// AffinityAggregate anchors a function on a stable aggregation
	// station; it stays put while the client roams.
	AffinityAggregate = "aggregate"
	// AffinityCloudOK permits a GNFC cloud site (falling back to the
	// aggregation hub when no cloud is connected).
	AffinityCloudOK = "cloud-ok"
)

// ValidAffinity reports whether a is a known affinity tag ("" = follow
// the chain).
func ValidAffinity(a string) bool {
	switch a {
	case "", AffinityNearClient, AffinityAggregate, AffinityCloudOK:
		return true
	}
	return false
}

// ChainSegment is one contiguous run of a split chain's functions,
// destined for a single station.
type ChainSegment struct {
	// Affinity is the run's effective placement tag.
	Affinity string
	// Functions is the run's slice of the chain's function list.
	Functions []agent.NFSpec
}

// SegmentsOf partitions a chain's functions into contiguous segments by
// effective affinity: an empty tag inherits the previous function's tag,
// leading empty tags inherit the first non-empty one, and a chain whose
// functions are all untagged is a single segment (never split).
func SegmentsOf(spec ChainSpec) []ChainSegment {
	fns := spec.Functions
	if len(fns) == 0 {
		return nil
	}
	eff := make([]string, len(fns))
	cur := ""
	for i, f := range fns {
		if f.Affinity != "" {
			cur = f.Affinity
		}
		eff[i] = cur
	}
	if eff[0] == "" {
		first := ""
		for _, e := range eff {
			if e != "" {
				first = e
				break
			}
		}
		if first == "" {
			return []ChainSegment{{Functions: fns}}
		}
		for i := range eff {
			if eff[i] != "" {
				break
			}
			eff[i] = first
		}
	}
	var segs []ChainSegment
	for i, f := range fns {
		if i == 0 || eff[i] != eff[i-1] {
			segs = append(segs, ChainSegment{Affinity: eff[i]})
		}
		s := &segs[len(segs)-1]
		s.Functions = append(s.Functions, f)
	}
	return segs
}

// ValidateSegments rejects split layouts the runtime cannot honour: unknown
// affinity values, and near-client functions *behind* an anchored
// segment — the head is the only segment roaming chases, so a trailing
// near-client run would drift away from the client forever. AttachChain
// runs it, and the declarative spec layer validates documents with it.
func ValidateSegments(spec ChainSpec) error {
	for _, f := range spec.Functions {
		if !ValidAffinity(f.Affinity) {
			return fmt.Errorf("manager: chain %s: function %s has unknown affinity %q", spec.Name, f.Name, f.Affinity)
		}
	}
	for i, sg := range SegmentsOf(spec) {
		if i > 0 && sg.Affinity == AffinityNearClient {
			return fmt.Errorf("manager: chain %s: near-client functions must precede anchored ones (segment %d)", spec.Name, i)
		}
	}
	return nil
}

// SetTunnelProvisioner installs the callback the manager uses to make
// sure a shaped tunnel exists between two stations before steering an
// inter-segment leg over it. The core layer wires its tunnel registry
// here; without a provisioner the manager assumes tunnels pre-exist (the
// agent's deploy fails loudly if one doesn't).
func (m *Manager) SetTunnelProvisioner(fn func(a, b string) error) {
	m.mutate(func(c *controlState) { c.tunneler = fn })
}

// ensureTunnel provisions the a<->b tunnel when a provisioner is wired;
// same-station and half-empty pairs are no-ops.
func (m *Manager) ensureTunnel(a, b string) error {
	if a == "" || b == "" || a == b {
		return nil
	}
	fn := m.state().tunneler
	if fn == nil {
		return nil
	}
	return fn(a, b)
}

// aggregationHub picks the station anchoring "aggregate" segments: the
// non-cloud station minimising its worst-case RTT to every other
// non-cloud station over the topology graph, ties broken by name. The
// choice is client-independent, so every chain (and every revival after
// a failover) converges on the same anchor. Without a topology graph the
// lexicographically first edge station wins — still deterministic.
func aggregationHub(st *controlState) (string, bool) {
	var edges []string
	for s, h := range st.agents {
		if !h.Cloud {
			edges = append(edges, s)
		}
	}
	if len(edges) == 0 {
		return "", false
	}
	sort.Strings(edges)
	if st.topo == nil {
		return edges[0], true
	}
	best, bestWorst := "", time.Duration(-1)
	for _, c := range edges {
		worst, feasible := time.Duration(0), true
		for _, s := range edges {
			if s == c {
				continue
			}
			rtt, ok := st.topo.RTT(topology.StationID(c), topology.StationID(s))
			if !ok {
				feasible = false
				break
			}
			if rtt > worst {
				worst = rtt
			}
		}
		if !feasible {
			continue
		}
		if bestWorst < 0 || worst < bestWorst {
			best, bestWorst = c, worst
		}
	}
	if best == "" {
		return edges[0], true // disconnected graph: still deterministic
	}
	return best, true
}

// cloudAnchor picks the site hosting "cloud-ok" segments (first cloud
// agent by name); ok is false when no cloud site is connected.
func cloudAnchor(st *controlState) (string, bool) {
	var clouds []string
	for s, h := range st.agents {
		if h.Cloud {
			clouds = append(clouds, s)
		}
	}
	if len(clouds) == 0 {
		return "", false
	}
	sort.Strings(clouds)
	return clouds[0], true
}

// segmentStations asks the placement rule where every segment of a chain
// not yet deployed anywhere belongs.
func segmentStations(st *controlState, cl whereabouts, spec ChainSpec, n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		var err error
		if out[i], err = wantAt(st, cl, spec, i, ""); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SegmentPlan reports a split chain's desired station per segment for the
// client's current position. ok is false when the chain is not split or
// the client is not attached anywhere; the reconciler uses this to tell
// per-segment drift from legitimate placement.
func (m *Manager) SegmentPlan(client string, spec ChainSpec) ([]string, bool) {
	n := len(SegmentsOf(spec))
	rec := m.clients.get(client)
	if n < 2 || rec == nil {
		return nil, false
	}
	rec.mu.Lock()
	cl := rec.whereabouts()
	rec.mu.Unlock()
	if cl.station == "" {
		return nil, false
	}
	stations, err := segmentStations(m.state(), cl, spec, n)
	return stations, err == nil
}

// pathRTT sums the multi-leg round-trip of a chain: the access leg from the
// client's station to the head plus every inter-segment leg. ok is false
// when any leg has no path in the graph, or there is no graph.
func pathRTT(topo *topology.Graph, clientAt string, stations []string) (time.Duration, bool) {
	if topo == nil {
		return 0, false
	}
	total, prev := time.Duration(0), clientAt
	for _, s := range stations {
		if s != prev {
			rtt, ok := topo.RTT(topology.StationID(prev), topology.StationID(s))
			if !ok {
				return 0, false
			}
			total += rtt
		}
		prev = s
	}
	return total, true
}

// MigrateSegment moves one segment of a chain to another station on demand;
// segment 0 of an unsplit chain is the chain. to == "" asks the placement
// rule where the segment belongs (how the reconciler sends a drifted anchor
// home). A segment already at `to` is left alone.
func (m *Manager) MigrateSegment(client, chainName string, seg int, to string) (MigrationReport, error) {
	rec := m.clients.get(client)
	if rec == nil {
		return MigrationReport{}, fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	dep := deployment{chainName, seg}
	st := m.state()
	rec.migMu.Lock()
	defer rec.migMu.Unlock()
	rec.mu.Lock()
	spec, ok := rec.chains[chainName]
	from, cl := rec.at(dep), rec.whereabouts()
	rec.mu.Unlock()
	if !ok {
		return MigrationReport{}, fmt.Errorf("%w: %s", ErrUnknownChain, chainName)
	}
	if seg < 0 || (seg > 0 && seg >= len(SegmentsOf(spec))) {
		return MigrationReport{}, fmt.Errorf("manager: %s has no segment %d", chainName, seg)
	}
	if to == "" {
		var err error
		if to, err = wantAt(st, cl, spec, seg, from); err != nil {
			return MigrationReport{}, err
		}
	}
	if from == to {
		return MigrationReport{Client: client, Chain: dep.name(), From: from, To: to}, nil
	}
	sp := m.tracer.StartSpan(trace.Context{}, "manager.migrate_request")
	sp.SetAttr("client", client)
	rep, _ := m.moveSegment(sp.Context(), client, rec, hop{dep, from, to}, st.strategy, nil)
	sp.End(nil)
	m.recordMigration(rep)
	if rep.Err != "" {
		return rep, fmt.Errorf("manager: migration failed: %s", rep.Err)
	}
	return rep, nil
}

// segmentDeploy renders segment i of a chain as a deploy spec: its functions
// and its legs, derived from where `at` places its neighbours — the ingress
// leg names segment i-1, the egress leg segment i+1, and the chain's two ends
// stay on the edge. A split chain's segments also carry the client's
// addressing (an anchored segment never sees its client); a one-segment
// chain's spec is {Chain, Client, Functions} and nothing else.
func segmentDeploy(client string, mac packet.MAC, ip packet.IP, chain string, segs []ChainSegment, i int, at func(int) string) agent.DeploySpec {
	dep := agent.DeploySpec{Chain: agent.SegmentDeployName(chain, i), Client: client, Functions: segs[i].Functions}
	if len(segs) > 1 {
		dep.ClientMAC, dep.ClientIP = mac, ip
	}
	if i > 0 {
		dep.Ingress = agent.Leg{Station: at(i - 1), Peer: agent.SegmentDeployName(chain, i-1)}
	}
	if i < len(segs)-1 {
		dep.Egress = agent.Leg{Station: at(i + 1), Peer: agent.SegmentDeployName(chain, i+1)}
	}
	return dep
}
