package netem

import (
	"sync"
	"sync/atomic"

	"gnf/internal/packet"
)

// fdbShards is the shard count of the dynamic forwarding database. MAC
// learning is a per-frame write, so it lives outside the copy-on-write
// control-plane snapshot; sharding keeps concurrent ports from contending
// on one lock. Power of two so shard selection is a mask.
const fdbShards = 32

// fdbTable is the dynamic (learned) MAC table. Sticky "pinned" entries
// live in the switch snapshot instead and always shadow this table, so a
// racing learner can never repoint an associated client (see
// Switch.PinMAC).
type fdbTable struct {
	shards [fdbShards]fdbShard
	// gen moves after every change to what lookup can return, so the batch
	// path may keep a learn's or a lookup's result for as long as one atomic
	// load says gen stood still. Writers bump it after the map write, readers
	// load it before the learn or lookup: a memo is never stamped newer than
	// what it holds.
	gen atomic.Uint64
}

type fdbShard struct {
	mu sync.RWMutex
	m  map[packet.MAC]PortID
	// Pad shards apart: RLock is an atomic RMW on the mutex word, so two
	// shards sharing a cache line would still bounce it between cores.
	_ [96]byte
}

func newFDBTable() *fdbTable {
	t := &fdbTable{}
	t.gen.Store(1) // 0 is the batch path's "no memo"
	for i := range t.shards {
		t.shards[i].m = make(map[packet.MAC]PortID)
	}
	return t
}

// shard picks a shard by the low bytes of the MAC; locally-administered
// test/deployment MACs vary in the tail, so this spreads well.
func (t *fdbTable) shard(mac packet.MAC) *fdbShard {
	return &t.shards[(uint(mac[5])^uint(mac[4])<<3^uint(mac[3])<<6)&(fdbShards-1)]
}

// learn records mac on port. The common case — entry already correct — is
// served under a read lock so steady traffic never serialises on learning.
func (t *fdbTable) learn(mac packet.MAC, port PortID) {
	s := t.shard(mac)
	s.mu.RLock()
	cur, ok := s.m[mac]
	s.mu.RUnlock()
	if ok && cur == port {
		return
	}
	s.mu.Lock()
	s.m[mac] = port
	s.mu.Unlock()
	t.gen.Add(1)
}

func (t *fdbTable) lookup(mac packet.MAC) (PortID, bool) {
	s := t.shard(mac)
	s.mu.RLock()
	port, ok := s.m[mac]
	s.mu.RUnlock()
	return port, ok
}

func (t *fdbTable) delete(mac packet.MAC) {
	s := t.shard(mac)
	s.mu.Lock()
	delete(s.m, mac)
	s.mu.Unlock()
	t.gen.Add(1)
}

// flushPort removes every entry pointing at port (port detach).
func (t *fdbTable) flushPort(port PortID) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for mac, p := range s.m {
			if p == port {
				delete(s.m, mac)
			}
		}
		s.mu.Unlock()
	}
	t.gen.Add(1)
}

func (t *fdbTable) size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
