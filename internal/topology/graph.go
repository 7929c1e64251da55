// The station graph: the network *between* stations, which the plain
// cell/station/client model above deliberately omits. Nodes are stations
// (edge boxes and GNFC cloud sites), undirected edges are links with a
// propagation delay and a capacity, and the graph maintains an all-pairs
// latency matrix plus next-hop table so placement can rank
// candidate stations by predicted client<->chain RTT (Forti et al.,
// "Probabilistic QoS-aware Placement of VNF chains at the Edge").
//
// The matrix is kept current on every mutation: a new or faster link only
// relaxes existing entries (O(n²) — no recomputation from scratch), while
// a slowed or removed link triggers a full Floyd-Warshall rebuild, the
// only case where previously-optimal paths can get worse.

package topology

import (
	"sort"
	"sync"
	"time"
)

// Link is one undirected edge of the station graph.
type Link struct {
	A, B StationID
	// Delay is the link's one-way propagation delay.
	Delay time.Duration
	// RateBps is the link capacity in bits/s (0 = unconstrained).
	RateBps int64
}

// Graph is a mutable station graph with an always-current all-pairs
// latency matrix. All methods are safe for concurrent use.
type Graph struct {
	mu   sync.RWMutex
	adj  map[StationID]map[StationID]Link
	dist map[StationID]map[StationID]time.Duration
	next map[StationID]map[StationID]StationID
}

// NewGraph creates an empty station graph.
func NewGraph() *Graph {
	return &Graph{
		adj:  make(map[StationID]map[StationID]Link),
		dist: make(map[StationID]map[StationID]time.Duration),
		next: make(map[StationID]map[StationID]StationID),
	}
}

// AddNode registers a station with no links yet (idempotent).
func (g *Graph) AddNode(id StationID) {
	g.mu.Lock()
	g.addNodeLocked(id)
	g.mu.Unlock()
}

func (g *Graph) addNodeLocked(id StationID) {
	if _, ok := g.adj[id]; ok {
		return
	}
	g.adj[id] = make(map[StationID]Link)
	// An isolated node reaches only itself; no existing entry changes.
	g.dist[id] = map[StationID]time.Duration{id: 0}
	g.next[id] = map[StationID]StationID{id: id}
}

// SetLink adds or updates the undirected link between l.A and l.B,
// registering unknown endpoints. A new or faster link relaxes the latency
// matrix in place; a slower one forces a full rebuild.
func (g *Graph) SetLink(l Link) {
	if l.A == l.B {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addNodeLocked(l.A)
	g.addNodeLocked(l.B)
	old, had := g.adj[l.A][l.B]
	g.adj[l.A][l.B] = l
	g.adj[l.B][l.A] = Link{A: l.B, B: l.A, Delay: l.Delay, RateBps: l.RateBps}
	switch {
	case had && l.Delay == old.Delay:
		// Same weight (rate changes don't affect latency): matrix holds.
	case !had || l.Delay < old.Delay:
		g.relaxLocked(l.A, l.B, l.Delay)
	default:
		g.rebuildLocked()
	}
}

// RemoveLink deletes the link between a and b, if present.
func (g *Graph) RemoveLink(a, b StationID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.adj[a][b]; !ok {
		return
	}
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	g.rebuildLocked()
}

// relaxLocked folds one new/improved edge (u,v,w) into the matrix: any
// pair whose best path improves by crossing the edge — in either
// direction — is updated, and nothing else moves.
func (g *Graph) relaxLocked(u, v StationID, w time.Duration) {
	nodes := g.nodesLocked()
	for _, pair := range [2][2]StationID{{u, v}, {v, u}} {
		a, b := pair[0], pair[1]
		if cur, ok := g.dist[a][b]; !ok || w < cur {
			g.dist[a][b] = w
			g.next[a][b] = b
		}
		for _, i := range nodes {
			dia, ok := g.dist[i][a]
			if !ok {
				continue
			}
			for _, j := range nodes {
				dbj, ok := g.dist[b][j]
				if !ok {
					continue
				}
				cand := dia + w + dbj
				if cur, ok := g.dist[i][j]; !ok || cand < cur {
					g.dist[i][j] = cand
					if i == a {
						g.next[i][j] = b
					} else {
						g.next[i][j] = g.next[i][a]
					}
				}
			}
		}
	}
}

// rebuildLocked recomputes the full matrix (Floyd-Warshall over the
// sorted node list, so equal-cost ties break deterministically).
func (g *Graph) rebuildLocked() {
	nodes := g.nodesLocked()
	g.dist = make(map[StationID]map[StationID]time.Duration, len(nodes))
	g.next = make(map[StationID]map[StationID]StationID, len(nodes))
	for _, i := range nodes {
		g.dist[i] = map[StationID]time.Duration{i: 0}
		g.next[i] = map[StationID]StationID{i: i}
	}
	for _, i := range nodes {
		for peer, l := range g.adj[i] {
			if cur, ok := g.dist[i][peer]; !ok || l.Delay < cur {
				g.dist[i][peer] = l.Delay
				g.next[i][peer] = peer
			}
		}
	}
	for _, k := range nodes {
		for _, i := range nodes {
			dik, ok := g.dist[i][k]
			if !ok {
				continue
			}
			for _, j := range nodes {
				dkj, ok := g.dist[k][j]
				if !ok {
					continue
				}
				if cur, ok := g.dist[i][j]; !ok || dik+dkj < cur {
					g.dist[i][j] = dik + dkj
					g.next[i][j] = g.next[i][k]
				}
			}
		}
	}
}

// Latency returns the one-way propagation delay of the best path between
// a and b; ok is false when either node is unknown or unreachable.
func (g *Graph) Latency(a, b StationID) (time.Duration, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d, ok := g.dist[a][b]
	return d, ok
}

// RTT returns the predicted round-trip between a and b (twice the best
// one-way delay; 0,true for a == b).
func (g *Graph) RTT(a, b StationID) (time.Duration, bool) {
	d, ok := g.Latency(a, b)
	return 2 * d, ok
}

// Path returns the station sequence of the best path from a to b,
// inclusive of both ends; ok is false when unreachable.
func (g *Graph) Path(a, b StationID) ([]StationID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.dist[a][b]; !ok {
		return nil, false
	}
	path := []StationID{a}
	for cur := a; cur != b; {
		hop, ok := g.next[cur][b]
		if !ok || hop == cur {
			return nil, false
		}
		path = append(path, hop)
		cur = hop
	}
	return path, true
}

// Nodes lists registered stations, sorted.
func (g *Graph) Nodes() []StationID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodesLocked()
}

func (g *Graph) nodesLocked() []StationID {
	out := make([]StationID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Links lists every undirected link exactly once, sorted by endpoint
// names — the wiring list the core layer instantiates netem links from.
func (g *Graph) Links() []Link {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Link
	for a, peers := range g.adj {
		for b, l := range peers {
			if a < b {
				out = append(out, Link{A: a, B: b, Delay: l.Delay, RateBps: l.RateBps})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Ring links the stations into a cycle with a uniform per-hop shape — the
// classic metro-ring aggregation layout.
func Ring(ids []StationID, hopDelay time.Duration, rateBps int64) *Graph {
	g := NewGraph()
	for _, id := range ids {
		g.AddNode(id)
	}
	if len(ids) < 2 {
		return g
	}
	for i, id := range ids {
		peer := ids[(i+1)%len(ids)]
		if id != peer {
			g.SetLink(Link{A: id, B: peer, Delay: hopDelay, RateBps: rateBps})
		}
	}
	return g
}

// Tree links the stations as a complete binary tree rooted at ids[0] —
// the access/aggregation/core hierarchy of a wired ISP edge.
func Tree(ids []StationID, hopDelay time.Duration, rateBps int64) *Graph {
	g := NewGraph()
	for _, id := range ids {
		g.AddNode(id)
	}
	for i := 1; i < len(ids); i++ {
		g.SetLink(Link{A: ids[(i-1)/2], B: ids[i], Delay: hopDelay, RateBps: rateBps})
	}
	return g
}

// FatEdge fully meshes the stations — every pair one hop apart, the
// dense-interconnect upper bound latency-aware placement is compared
// against.
func FatEdge(ids []StationID, hopDelay time.Duration, rateBps int64) *Graph {
	g := NewGraph()
	for _, id := range ids {
		g.AddNode(id)
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			g.SetLink(Link{A: ids[i], B: ids[j], Delay: hopDelay, RateBps: rateBps})
		}
	}
	return g
}
