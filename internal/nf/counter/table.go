package counter

import (
	"cmp"
	"time"

	"gnf/internal/packet"
)

// flowKey is a five-tuple in two words, an endpoint being its address above
// its port: a holds the protocol above the source endpoint, b the
// destination endpoint. Ordering keys by (a, b) is the record format's key
// order (protocol, source, destination), the smaller endpoint by that word
// is the one packet.FiveTuple.Canonical puts first, and two words compare
// and hash in a few instructions. A 14-byte tuple, built field by field,
// stalls every copy of it that loads it whole.
type flowKey struct{ a, b uint64 }

const endpointBits = 48

func endpointWord(e packet.Endpoint) uint64 { return uint64(e.Addr.Uint32())<<16 | uint64(e.Port) }

// keyOf packs ft as it is.
func keyOf(ft packet.FiveTuple) flowKey {
	return flowKey{a: uint64(ft.Proto)<<endpointBits | endpointWord(ft.Src), b: endpointWord(ft.Dst)}
}

// parsedKey is keyOf(p.FiveTuple()), read off the decoded layers.
func parsedKey(p *packet.Parser) (flowKey, bool) {
	src, dst, ok := p.Ports()
	if !ok || !p.Has(packet.LayerIPv4) {
		return flowKey{}, false
	}
	return flowKey{
		a: uint64(p.IP.Proto)<<endpointBits | uint64(p.IP.Src.Uint32())<<16 | uint64(src),
		b: uint64(p.IP.Dst.Uint32())<<16 | uint64(dst),
	}, true
}

// canonical puts the smaller endpoint first.
func (k flowKey) canonical() flowKey {
	if src := k.a & (1<<endpointBits - 1); k.b < src {
		return flowKey{a: k.a&^(1<<endpointBits-1) | k.b, b: src}
	}
	return k
}

// tuple unpacks k.
func (k flowKey) tuple() packet.FiveTuple {
	endpoint := func(w uint64) packet.Endpoint {
		return packet.Endpoint{Addr: packet.IPFromUint32(uint32(w >> 16)), Port: uint16(w)}
	}
	return packet.FiveTuple{Proto: uint8(k.a >> endpointBits), Src: endpoint(k.a), Dst: endpoint(k.b)}
}

func (k flowKey) compare(o flowKey) int { return cmp.Or(cmp.Compare(k.a, o.a), cmp.Compare(k.b, o.b)) }

// hash spreads k over 32 bits: a multiply carries a's bits upward, b is
// xored in, the high half is folded onto the low, and a last multiply
// carries every input bit into the high half it returns.
func (k flowKey) hash() uint32 {
	x := k.a*0x9e3779b97f4a7c15 ^ k.b
	x ^= x >> 32
	x *= 0xbf58476d1ce4e5b9
	return uint32(x >> 32)
}

// row is one flow's counters beside its key: 64 bytes and no pointer, so a
// page of rows is one allocation the garbage collector never scans. The
// window start is Unix nanoseconds, 0 standing for the zero time, as the
// record codec writes it.
type row struct {
	key         flowKey
	packets     uint64
	bytes       uint64
	windowStart int64
	windowCount uint64
	seq         uint64
	alerted     bool
}

// pageShift sizes a page: 512 rows, 32 KiB.
const (
	pageShift = 9
	pageRows  = 1 << pageShift
)

// flowTable maps a flow key to its row. Rows are appended and never
// removed (the counter does not evict; ExportDelta's upsert-only delta
// relies on it), and they live in fixed-size pages, so a row never moves
// and growing the table never copies one: one slice grown by append would
// copy every row at each doubling and leave the old array to the collector.
// The index is open-addressed with linear probing, at most half full; an
// entry is a 32-bit hash tag above the row number plus one, 0 meaning empty.
// The tag alone places an entry, so doubling the index re-places entries
// without reading a row.
type flowTable struct {
	pages []*[pageRows]row
	n     uint32
	index []uint64
}

// len returns the number of rows.
func (t *flowTable) len() int { return int(t.n) }

// row returns row n's address, stable for the table's life.
func (t *flowTable) row(n uint32) *row { return &t.pages[n>>pageShift][n&(pageRows-1)] }

// find returns key's row number.
func (t *flowTable) find(key flowKey) (uint32, bool) {
	if len(t.index) == 0 {
		return 0, false
	}
	i, ok := t.slot(key, key.hash())
	return uint32(t.index[i]) - 1, ok
}

// upsert returns key's row number, appending a zero row for a new key and
// reporting that it did.
func (t *flowTable) upsert(key flowKey) (n uint32, added bool) {
	if 2*(int(t.n)+1) > len(t.index) {
		t.grow()
	}
	tag := key.hash()
	i, ok := t.slot(key, tag)
	if ok {
		return uint32(t.index[i]) - 1, false
	}
	n = t.n
	if n&(pageRows-1) == 0 {
		t.pages = append(t.pages, new([pageRows]row))
	}
	t.n++
	t.row(n).key = key
	t.index[i] = uint64(tag)<<32 | uint64(n+1)
	return n, true
}

// slot returns the index slot holding key, whose hash tag is tag, or else
// the empty slot where it would go, and whether key was found. The index
// must not be empty.
func (t *flowTable) slot(key flowKey, tag uint32) (uint32, bool) {
	mask := uint32(len(t.index) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return i, false
		}
		if uint32(e>>32) == tag && t.row(uint32(e)-1).key == key {
			return i, true
		}
	}
}

// grow doubles the index (its first size is 64 entries) and re-places every
// entry by its tag.
func (t *flowTable) grow() {
	old := t.index
	t.index = make([]uint64, max(64, 2*len(old)))
	mask := uint32(len(t.index) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := uint32(e>>32) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = e
	}
}

// unixNano is t as a row stores it: 0 for the zero time.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// timeOf is the inverse of unixNano.
func timeOf(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// stats returns r's counters as the exported snapshot.
func (r *row) stats() FlowStats {
	return FlowStats{
		Packets:     r.packets,
		Bytes:       r.bytes,
		WindowStart: timeOf(r.windowStart),
		WindowCount: r.windowCount,
		Alerted:     r.alerted,
		Seq:         r.seq,
	}
}
