// Package dnscache implements an edge DNS cache NF. Inbound responses are
// cached by question name; subsequent outbound queries hit the cache and
// are answered directly at the edge with a TTL-decayed copy — the classic
// latency win of edge computing that §1 of the paper motivates. The cache
// contents are migration state: a roaming client keeps its warm cache.
package dnscache

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// entry is one cached answer set.
type entry struct {
	Answers []packet.DNSRecord
	Expires time.Time
	// Seq stamps the dirty epoch of the store, so pre-copy migration rounds
	// export only fresh entries.
	Seq uint64
}

// Cache is the NF instance.
type Cache struct {
	name    string
	maxTTL  uint32
	maxSize int

	mu      sync.Mutex
	clk     clock.Clock
	entries map[string]entry
	seq     uint64 // dirty epoch, bumped per store
	hits    uint64
	misses  uint64
	stores  uint64
	parser  packet.Parser
	msg     packet.DNSMessage
}

// New creates a cache bounded to maxSize entries (0 = unbounded) capping
// stored TTLs at maxTTL seconds.
func New(name string, maxSize int, maxTTL uint32) *Cache {
	if maxTTL == 0 {
		maxTTL = 300
	}
	return &Cache{
		name:    name,
		maxTTL:  maxTTL,
		maxSize: maxSize,
		clk:     clock.System(),
		entries: make(map[string]entry),
	}
}

// SetClock implements nf.ClockSetter.
func (c *Cache) SetClock(k clock.Clock) {
	c.mu.Lock()
	c.clk = k
	c.mu.Unlock()
}

// Name implements nf.Function.
func (c *Cache) Name() string { return c.name }

// Kind implements nf.Function.
func (c *Cache) Kind() string { return "dnscache" }

// Len returns the number of live cache entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Process implements nf.Function.
func (c *Cache) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(c, dir, frame)
}

// ProcessBatch implements nf.Function: one lock acquisition covers the
// batch. A query the cache answers leaves as a reply; every other frame
// continues.
func (c *Cache) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, frame := range frames {
		if reply := c.answerLocked(dir, frame); reply != nil {
			out.Reverse = append(out.Reverse, reply)
		} else {
			out.Forward = append(out.Forward, frame)
		}
	}
}

// answerLocked handles one frame with mu held: it stores an inbound
// response and returns the reply to an outbound query it can answer, or
// nil when the frame continues.
func (c *Cache) answerLocked(dir nf.Direction, frame []byte) []byte {
	if err := c.parser.Parse(frame); err != nil || !c.parser.Has(packet.LayerUDP) {
		return nil
	}
	p := &c.parser
	switch {
	case dir == nf.Outbound && p.UDP.DstPort == 53:
		if err := c.msg.Decode(p.UDP.Payload()); err != nil || c.msg.Response || len(c.msg.Questions) == 0 {
			return nil
		}
		q := c.msg.Questions[0]
		if q.Type != packet.DNSTypeA {
			return nil
		}
		e, ok := c.entries[q.Name]
		now := c.clk.Now()
		if !ok || !e.Expires.After(now) {
			if ok {
				delete(c.entries, q.Name)
			}
			c.misses++
			return nil
		}
		c.hits++
		remaining := uint32(e.Expires.Sub(now).Seconds())
		if remaining == 0 {
			remaining = 1
		}
		resp := packet.DNSMessage{
			ID:        c.msg.ID,
			Response:  true,
			Recursion: c.msg.Recursion,
			Questions: append([]packet.DNSQuestion(nil), c.msg.Questions...),
		}
		for _, a := range e.Answers {
			a.TTL = remaining
			resp.Answers = append(resp.Answers, a)
		}
		wire, err := resp.Append(nil)
		if err != nil {
			return nil
		}
		return packet.BuildUDP(p.Eth.Dst, p.Eth.Src, p.IP.Dst, p.IP.Src,
			p.UDP.DstPort, p.UDP.SrcPort, wire)

	case dir == nf.Inbound && p.UDP.SrcPort == 53:
		if err := c.msg.Decode(p.UDP.Payload()); err != nil || !c.msg.Response ||
			len(c.msg.Questions) == 0 || len(c.msg.Answers) == 0 || c.msg.Rcode != packet.DNSRcodeOK {
			return nil
		}
		name := c.msg.Questions[0].Name
		ttl := c.msg.Answers[0].TTL
		if ttl > c.maxTTL {
			ttl = c.maxTTL
		}
		if ttl == 0 {
			return nil
		}
		if c.maxSize > 0 && len(c.entries) >= c.maxSize {
			if _, exists := c.entries[name]; !exists {
				c.evictOne()
			}
		}
		ans := make([]packet.DNSRecord, len(c.msg.Answers))
		copy(ans, c.msg.Answers)
		c.seq++
		c.entries[name] = entry{Answers: ans, Expires: c.clk.Now().Add(time.Duration(ttl) * time.Second), Seq: c.seq}
		c.stores++
	}
	return nil
}

// evictOne removes the entry expiring soonest, the least name among
// equals. Called with mu held.
func (c *Cache) evictOne() {
	var victim string
	var soonest time.Time
	first := true
	for name, e := range c.entries {
		if first || e.Expires.Before(soonest) || (e.Expires.Equal(soonest) && name < victim) {
			victim, soonest, first = name, e.Expires, false
		}
	}
	if victim != "" {
		delete(c.entries, victim)
	}
}

// NFStats implements nf.StatsReporter.
func (c *Cache) NFStats() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]uint64{
		"hits":    c.hits,
		"misses":  c.misses,
		"stores":  c.stores,
		"entries": uint64(len(c.entries)),
	}
}

// A cache's state is its hits, misses and stores (uvarints), then the count
// and the entries in name order: name (string), expiry (time), dirty epoch
// (uvarint), and the count of answers, each name (string), type and class
// (u16), TTL (u32), A (IP), CNAME (string) and raw data (bytes).

// ExportDelta implements nf.Stateful: entries stored after epoch
// `since` (everything for since == 0) plus the aggregate counters, which
// are tiny and shipped every round. Evicted or expired entries carry no
// tombstone — stale copies at the migration target expire by their own
// absolute deadlines.
func (c *Cache) ExportDelta(since uint64) ([]byte, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.entries))
	for name, e := range c.entries {
		if e.Seq > since {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	var w nf.RecordWriter
	w.Uvarint(c.hits)
	w.Uvarint(c.misses)
	w.Uvarint(c.stores)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		e := c.entries[name]
		w.Text(name)
		w.Time(e.Expires)
		w.Uvarint(e.Seq)
		w.Uvarint(uint64(len(e.Answers)))
		for _, a := range e.Answers {
			w.Text(a.Name)
			w.Uint16(a.Type)
			w.Uint16(a.Class)
			w.Uint32(a.TTL)
			w.IP(a.A)
			w.Text(a.CNAME)
			w.Bytes(a.RData)
		}
	}
	return w, c.seq, nil
}

// ImportDelta implements nf.Stateful. It decodes a blob and, only if all of
// it is sound, upserts its entries into the live cache and adopts its
// absolute counters, advancing the local dirty epoch past every imported
// stamp.
func (c *Cache) ImportDelta(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := nf.NewRecordReader(data)
	hits, misses, stores := r.Uvarint(), r.Uvarint(), r.Uvarint()
	names := make([]string, r.Count())
	entries := make([]entry, len(names))
	for i := range names {
		names[i] = r.Text()
		e := &entries[i]
		e.Expires = r.Time()
		e.Seq = r.Uvarint()
		e.Answers = make([]packet.DNSRecord, r.Count())
		for j := range e.Answers {
			e.Answers[j] = packet.DNSRecord{
				Name:  r.Text(),
				Type:  r.Uint16(),
				Class: r.Uint16(),
				TTL:   r.Uint32(),
				A:     r.IP(),
				CNAME: r.Text(),
				RData: r.Bytes(),
			}
		}
		if i > 0 && names[i-1] >= names[i] {
			return fmt.Errorf("%w: dnscache entries out of name order", nf.ErrBadRecord)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	c.hits, c.misses, c.stores = hits, misses, stores
	for i, name := range names {
		c.seq = max(c.seq, entries[i].Seq)
		c.entries[name] = entries[i]
	}
	return nil
}

var _ nf.Stateful = (*Cache)(nil)

func init() {
	nf.Default.Register("dnscache", func(name string, params nf.Params) (nf.Function, error) {
		size, err := strconv.Atoi(params.Get("max_entries", "1024"))
		if err != nil || size < 0 {
			return nil, err
		}
		ttl, err := strconv.ParseUint(params.Get("max_ttl", "300"), 10, 32)
		if err != nil {
			return nil, err
		}
		return New(name, size, uint32(ttl)), nil
	})
}
