// Sharded manager state: the substrate that lets thousands of concurrent
// handoffs proceed without convoying on one global mutex.
//
// Two structures replace the old single Manager.mu critical section:
//
//   - controlState is an immutable copy-on-write snapshot of the manager's
//     read-mostly configuration — the agent registry, migration strategy,
//     topology graph and failover switches. Hot paths
//     (reconcileClient's loop, place(), agentFor) load it with one atomic
//     pointer read and never contend; mutations clone under Manager.mu and
//     publish a new snapshot. This is the same trick the batched dataplane
//     uses for switch tables.
//
//   - clientTable shards the client registry by FNV hash of the client
//     name. Each shard's mutex guards only that shard's map; the mutable
//     fields of a clientRec are guarded by the record's own leaf mutex
//     (clientRec.mu), so two clients handing off concurrently touch
//     disjoint locks.
//
// Lock ordering (outermost first): rec.migMu > shard.mu > rec.mu. The
// snapshot is lock-free to read, so no path ever holds Manager.mu together
// with a shard or record lock. rec.mu is a leaf: never acquire any other
// lock, issue an RPC, or append to the journal while holding it.
package manager

import (
	"hash/fnv"
	"sync"
	"time"

	"gnf/internal/topology"
)

// controlState is the manager's read-mostly configuration, published as an
// immutable snapshot. Readers treat every field (including map contents)
// as frozen; all mutation goes through Manager.mutate, which clones.
type controlState struct {
	agents   map[string]*AgentHandle
	strategy Strategy
	topo     *topology.Graph
	// hotspotCPU is the CPU percent threshold for hotspot detection.
	hotspotCPU float64
	// tunneler provisions a shaped tunnel between two stations on demand
	// (split-chain inter-segment legs); nil means tunnels pre-exist.
	tunneler func(a, b string) error

	// Failover configuration and the set of stations declared dead.
	failoverTimeout time.Duration
	failoverAuto    bool
	failed          map[string]bool
}

// clone deep-copies the maps so the mutation can edit them without
// touching the published snapshot.
func (s *controlState) clone() *controlState {
	next := *s
	next.agents = make(map[string]*AgentHandle, len(s.agents))
	for k, v := range s.agents {
		next.agents[k] = v
	}
	next.failed = make(map[string]bool, len(s.failed))
	for k, v := range s.failed {
		next.failed[k] = v
	}
	return &next
}

// state returns the current configuration snapshot (lock-free).
func (m *Manager) state() *controlState { return m.ctrl.Load() }

// mutate publishes a new configuration snapshot derived from the current
// one. Manager.mu serialises writers; readers are never blocked.
func (m *Manager) mutate(fn func(*controlState)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.ctrl.Load().clone()
	fn(next)
	m.ctrl.Store(next)
}

// clientShards is the shard count of the client table. Handoff storms fan
// thousands of clients across these; 64 keeps collision odds low without
// bloating the zero-client footprint.
const clientShards = 64

// clientShard is one bucket of the sharded client registry.
type clientShard struct {
	mu      sync.Mutex
	clients map[string]*clientRec
}

// clientTable is the sharded client registry. The registry is add-only
// (clients are never removed), which is what makes the lock-free snapshot
// iteration in forEach sound.
type clientTable struct {
	shards [clientShards]clientShard
}

func (t *clientTable) shard(client string) *clientShard {
	h := fnv.New32a()
	h.Write([]byte(client))
	return &t.shards[h.Sum32()%clientShards]
}

// get returns the client's record, or nil when unknown.
func (t *clientTable) get(client string) *clientRec {
	sh := t.shard(client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.clients[client]
}

// getOrCreate returns the client's record, creating an empty one on first
// sight.
func (t *clientTable) getOrCreate(client string) *clientRec {
	sh := t.shard(client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.clients[client]
	if !ok {
		rec = &clientRec{
			chains:   make(map[string]ChainSpec),
			placed:   make(map[deployment]placement),
			rendered: rendering{legs: make(map[deployment]string)},
		}
		if sh.clients == nil {
			sh.clients = make(map[string]*clientRec)
		}
		sh.clients[client] = rec
	}
	return rec
}

// forEach visits every registered client. Each shard is snapshotted under
// its own lock and the callback runs lock-free, so callbacks may take
// rec.mu (or rec.migMu) freely. The sweep is not atomic across shards —
// exactly as atomic as the callers need, since every consumer re-validates
// under per-record locks before acting.
func (t *clientTable) forEach(fn func(client string, rec *clientRec)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		names := make([]string, 0, len(sh.clients))
		recs := make([]*clientRec, 0, len(sh.clients))
		for name, rec := range sh.clients {
			names = append(names, name)
			recs = append(recs, rec)
		}
		sh.mu.Unlock()
		for j, name := range names {
			fn(name, recs[j])
		}
	}
}
