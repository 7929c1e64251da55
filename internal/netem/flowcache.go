package netem

import (
	"sync"
	"sync/atomic"

	"gnf/internal/packet"
)

// Flow cache geometry; the sizes are powers of two (mask selection).
const (
	flowCacheWays    = 4       // slots a bucket holds
	flowCacheMinSize = 1 << 10 // slots a table starts with
	flowCacheMaxSize = 1 << 15 // and never outgrows
	flowCacheStripes = 16      // bucket locks of a table
	flowSeenWords    = 1 << 13 // admission filter words,
	flowSeenBits     = 12      // each holding five fingerprints this wide
	// A table doubles once more than one in 1<<flowGrowShift of a window's
	// probes — a window is as many probes as the table has slots — found
	// its bucket full of live entries.
	flowGrowShift = 6
)

// flowCacheKey identifies a cached steering verdict: the arrival port plus
// everything a Match can inspect (packet.FlowKey). Equal keys are
// indistinguishable to the rule table, so caching per key is sound.
type flowCacheKey struct {
	in PortID
	fk packet.FlowKey
}

// flowSlot is one cached verdict (64 bytes). stamp is one more than the
// control-plane generation it was computed against: any table mutation bumps
// the switch's generation, so older slots simply stop matching — there is no
// flush — and an empty slot's zero stamp matches no generation, 0 included.
type flowSlot struct {
	key    flowCacheKey
	stamp  uint64
	out    PortID
	action Action
	// used is set by a hit and cleared by a fill that wanted the slot: an
	// entry that has hit since it was last challenged survives the challenge,
	// so flows sharing a full bucket do not take turns evicting each other.
	used bool
}

// flowTable is the verdict cache at one size: a set-associative exact-match
// array (the shape of OVS's EMC) behind an admission filter. A key hashes to
// one bucket of flowCacheWays slots and a fill overwrites one of them in
// place: nothing is wiped, rehashed or allocated while frames flow. A flow is
// probed for and filled only once the filter remembers an earlier frame of
// it: seen once, it costs one filter word, takes no lock and evicts nobody.
type flowTable struct {
	slots []flowSlot
	// seen holds, per word, the last five fingerprints that were not already
	// at its head (zero lanes are empty). It is handed on when a table grows.
	seen    *[flowSeenWords]atomic.Uint64
	stripes [flowCacheStripes]flowStripe
	// The growth window: a stripe that has counted its share of a window's
	// probes bumps windows, and the bump that completes the window clears
	// full. A probe that hits writes neither.
	full    atomic.Uint32 // fills that found no free slot, this window
	windows atomic.Uint32
}

// flowStripe guards the buckets whose index ends in its own, padded apart
// like fdbShard.
type flowStripe struct {
	mu     sync.Mutex
	probes int
	_      [112]byte
}

// flowCache holds the current table: nil until the switch's first frame,
// then small, doubling (contents dropped: it is a cache) only while admitted
// flows keep finding their buckets full.
type flowCache struct{ table atomic.Pointer[flowTable] }

// load returns the current table, replacing old — nil, or a table that
// proved too small — if no one else has yet.
func (c *flowCache) load(old *flowTable) *flowTable {
	if t := c.table.Load(); t != old {
		return t
	}
	next := &flowTable{slots: make([]flowSlot, flowCacheMinSize), seen: new([flowSeenWords]atomic.Uint64)}
	if old != nil {
		next.slots, next.seen = make([]flowSlot, 2*len(old.slots)), old.seen
	}
	c.table.CompareAndSwap(old, next)
	return c.table.Load()
}

// bucket returns the ways h selects and the stripe guarding them.
func (t *flowTable) bucket(h uint64) ([]flowSlot, *flowStripe) {
	b := int(h) & (len(t.slots)/flowCacheWays - 1)
	return t.slots[b*flowCacheWays:][:flowCacheWays], &t.stripes[b&(flowCacheStripes-1)]
}

// admit reports whether an earlier frame with hash h is still remembered,
// and remembers this one. A racing writer may lose a fingerprint (a flow is
// admitted a sight late) and two flows may share a word and a fingerprint
// (one is admitted a sight early): neither touches a verdict.
func (t *flowTable) admit(h uint64) bool {
	const lane, lanes = 1<<flowSeenBits - 1, 1<<(64/flowSeenBits*flowSeenBits) - 1
	w := &t.seen[h>>32&(flowSeenWords-1)]
	fp, old, seen := h>>(64-flowSeenBits)|1, w.Load(), false
	for v := old; v != 0 && !seen; v >>= flowSeenBits {
		seen = v&lane == fp
	}
	if old&lane != fp {
		w.Store((old<<flowSeenBits | fp) & lanes) // to the head
	}
	return seen
}

// lookup returns the verdict cached for k (whose hash is h) if it was
// computed against generation gen.
func (t *flowTable) lookup(k *flowCacheKey, h, gen uint64) (Action, PortID, bool) {
	ways, s := t.bucket(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probes++; s.probes == len(t.slots)/flowCacheStripes {
		s.probes = 0
		if t.windows.Add(1)%flowCacheStripes == 0 {
			t.full.Store(0)
		}
	}
	for i := range ways {
		if e := &ways[i]; e.stamp == gen+1 && e.key == *k {
			e.used = true
			return e.action, e.out, true
		}
	}
	return ActionNormal, 0, false
}

// fill records a verdict computed against gen in a slot of k's bucket that
// no lookup at gen can match, else in the way h picks unless that entry is
// owed its second chance. It reports whether the table has proved too small.
func (t *flowTable) fill(k *flowCacheKey, h, gen uint64, a Action, out PortID) bool {
	ways, s := t.bucket(h)
	victim := &ways[h>>30&(flowCacheWays-1)]
	s.mu.Lock()
	for i := range ways {
		if ways[i].stamp != gen+1 {
			victim = &ways[i]
			break
		}
	}
	full := victim.stamp == gen+1
	if full && victim.used {
		victim.used = false
	} else {
		*victim = flowSlot{key: *k, stamp: gen + 1, out: out, action: a}
	}
	s.mu.Unlock()
	n := len(t.slots)
	return full && n < flowCacheMaxSize && int(t.full.Add(1)) > n>>flowGrowShift
}

// size counts the entries a lookup at generation gen can return.
func (c *flowCache) size(gen uint64) (n int) {
	t := c.table.Load()
	for b := 0; t != nil && b < len(t.slots)/flowCacheWays; b++ {
		ways, s := t.bucket(uint64(b))
		s.mu.Lock()
		for i := range ways {
			if ways[i].stamp == gen+1 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
