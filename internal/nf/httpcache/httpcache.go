// Package httpcache implements an edge HTTP cache NF — one of the edge
// services the paper's introduction motivates ("dynamically allocating
// network services such as firewalls, caches, rate limiters"). It is a
// transparent forward cache: outbound GET requests whose response is
// cached and fresh are answered directly at the edge (the reply never
// leaves the station), everything else is forwarded and the returning
// response is stored.
//
// The cache operates on single-segment HTTP exchanges, the granularity
// every middlebox NF in this repository inspects. Entries are keyed by
// host+target and expire after a configurable TTL; "Cache-Control:
// no-store" on either side bypasses the cache. The whole cache is
// exported/imported as chain state, so it migrates with its client and a
// roaming user keeps a warm edge cache.
package httpcache

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// DefaultTTL is the freshness lifetime used when no "ttl" param is given.
const DefaultTTL = 60 * time.Second

// Cache is the NF instance.
type Cache struct {
	name string
	port uint16 // 0 = inspect every TCP port
	ttl  time.Duration
	max  int // entry cap; oldest-expiry entry evicted when full

	mu      sync.Mutex
	clk     clock.Clock
	parser  packet.Parser
	entries map[string]*entry
	pending map[packet.FiveTuple]string // in-flight request key per flow
	seq     uint64                      // dirty epoch, bumped per store

	hits, misses, stores, evictions uint64
	bytesSaved                      uint64
}

// entry is one cached response. Seq stamps the dirty epoch of the store,
// so pre-copy migration rounds export only fresh entries.
type entry struct {
	Response []byte // raw response bytes (head+body)
	Expires  time.Time
	Seq      uint64
}

// Option configures a Cache.
type Option func(*Cache)

// WithTTL sets the freshness lifetime.
func WithTTL(ttl time.Duration) Option { return func(c *Cache) { c.ttl = ttl } }

// WithPort restricts inspection to one TCP destination port (0 = all).
func WithPort(port uint16) Option { return func(c *Cache) { c.port = port } }

// WithMaxEntries caps the cache size (default 1024).
func WithMaxEntries(n int) Option { return func(c *Cache) { c.max = n } }

// New creates a cache NF.
func New(name string, opts ...Option) *Cache {
	c := &Cache{
		name:    name,
		ttl:     DefaultTTL,
		max:     1024,
		clk:     clock.System(),
		entries: make(map[string]*entry),
		pending: make(map[packet.FiveTuple]string),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func init() {
	nf.Default.Register("httpcache", Factory)
}

// Factory builds a cache from params: "ttl" (Go duration), "port", "max".
func Factory(name string, params nf.Params) (nf.Function, error) {
	var opts []Option
	if v := params.Get("ttl", ""); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithTTL(d))
	}
	if v := params.Get("port", ""); v != "" {
		p, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithPort(uint16(p)))
	}
	if v := params.Get("max", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithMaxEntries(n))
	}
	return New(name, opts...), nil
}

// Name implements nf.Function.
func (c *Cache) Name() string { return c.name }

// Kind implements nf.Function.
func (c *Cache) Kind() string { return "httpcache" }

// SetClock implements nf.ClockSetter.
func (c *Cache) SetClock(clk clock.Clock) {
	c.mu.Lock()
	c.clk = clk
	c.mu.Unlock()
}

// Process implements nf.Function.
func (c *Cache) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(c, dir, frame)
}

// ProcessBatch implements nf.Function: one lock acquisition covers the
// batch. A request the cache answers leaves as a reply; every other frame
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

// answerLocked handles one frame with mu held: the reply to a request it
// can serve from the cache, or nil when the frame continues.
func (c *Cache) answerLocked(dir nf.Direction, frame []byte) []byte {
	if err := c.parser.Parse(frame); err != nil || !c.parser.Has(packet.LayerTCP) {
		return nil
	}
	p := &c.parser
	if c.port != 0 {
		if dir == nf.Outbound && p.TCP.DstPort != c.port {
			return nil
		}
		if dir == nf.Inbound && p.TCP.SrcPort != c.port {
			return nil
		}
	}
	payload := p.TCP.Payload()
	if len(payload) == 0 {
		return nil // bare ACKs, SYNs etc.
	}
	if dir == nf.Outbound {
		return c.processRequest(p, payload)
	}
	c.processResponse(p, payload)
	return nil
}

// processRequest serves cache hits and tracks misses.
func (c *Cache) processRequest(p *packet.Parser, payload []byte) []byte {
	if !packet.LooksLikeHTTPRequest(payload) {
		return nil
	}
	req, err := packet.ParseHTTPRequest(payload)
	if err != nil || req.Method != "GET" {
		return nil
	}
	if cc, ok := req.Header("Cache-Control"); ok && strings.Contains(cc, "no-store") {
		return nil
	}
	key := req.Host + " " + req.Target
	now := c.clk.Now()
	if e, ok := c.entries[key]; ok && now.Before(e.Expires) {
		c.hits++
		c.bytesSaved += uint64(len(e.Response))
		// Answer at the edge: swap L2/L3/L4 directions, ack the request
		// segment, replay the stored response.
		tcpPayloadLen := uint32(len(payload))
		return packet.BuildTCP(
			p.Eth.Dst, p.Eth.Src, p.IP.Dst, p.IP.Src,
			p.TCP.DstPort, p.TCP.SrcPort,
			packet.TCPOptions{
				Seq:   p.TCP.Ack,
				Ack:   p.TCP.Seq + tcpPayloadLen,
				Flags: packet.TCPAck | packet.TCPPsh,
			},
			e.Response,
		)
	}
	if e, ok := c.entries[key]; ok && !now.Before(e.Expires) {
		delete(c.entries, key) // expired
	}
	c.misses++
	ft, ok := p.FiveTuple()
	if ok {
		c.pending[ft] = key
	}
	return nil
}

// processResponse stores responses for pending requests.
func (c *Cache) processResponse(p *packet.Parser, payload []byte) {
	ft, ok := p.FiveTuple()
	if !ok {
		return
	}
	// The response flow is the reverse of the request flow.
	key, ok := c.pending[ft.Reverse()]
	if !ok {
		return
	}
	if !packet.LooksLikeHTTPResponse(payload) {
		return
	}
	resp, err := packet.ParseHTTPResponse(payload)
	if err != nil {
		return
	}
	delete(c.pending, ft.Reverse())
	if resp.StatusCode != 200 {
		return
	}
	if cc, ok := resp.Header("Cache-Control"); ok &&
		(strings.Contains(cc, "no-store") || strings.Contains(cc, "private")) {
		return
	}
	c.store(key, payload)
}

// store inserts an entry, evicting the entry closest to expiry (the least
// key among equals, so a twin evicts the same one) when full. Callers hold
// c.mu.
func (c *Cache) store(key string, response []byte) {
	if len(c.entries) >= c.max {
		victim, oldest := "", time.Time{}
		for k, e := range c.entries {
			if victim == "" || e.Expires.Before(oldest) || (e.Expires.Equal(oldest) && k < victim) {
				victim, oldest = k, e.Expires
			}
		}
		if victim != "" {
			delete(c.entries, victim)
			c.evictions++
		}
	}
	c.seq++
	c.entries[key] = &entry{
		Response: append([]byte(nil), response...),
		Expires:  c.clk.Now().Add(c.ttl),
		Seq:      c.seq,
	}
	c.stores++
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// NFStats implements nf.StatsReporter.
func (c *Cache) NFStats() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]uint64{
		"hits":        c.hits,
		"misses":      c.misses,
		"stores":      c.stores,
		"evictions":   c.evictions,
		"bytes_saved": c.bytesSaved,
		"entries":     uint64(len(c.entries)),
	}
}

// A cache's state is the count and the entries in key order: key
// (string), expiry (time), dirty epoch (uvarint), the raw response (bytes).
// A full export and a delta share it.

// ExportState implements container.StateHandler: the cache content roams
// with the client, so the new station starts warm.
func (c *Cache) ExportState() ([]byte, error) {
	data, _, err := c.ExportDelta(0)
	return data, err
}

// ImportState implements container.StateHandler: the cache becomes the
// blob's. Entries already expired at import time are dropped.
func (c *Cache) ImportState(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.importLocked(data, true)
}

// ExportDelta implements nf.DeltaStateful: entries stored after epoch
// `since` (everything for since == 0). Evicted or expired entries carry no
// tombstone — a stale copy at the migration target expires by its own
// absolute deadline, so cache correctness is unaffected.
func (c *Cache) ExportDelta(since uint64) ([]byte, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k, e := range c.entries {
		if e.Seq > since {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var w nf.RecordWriter
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e := c.entries[k]
		w.Text(k)
		w.Time(e.Expires)
		w.Uvarint(e.Seq)
		w.Bytes(e.Response)
	}
	return w, c.seq, nil
}

// ImportDelta implements nf.DeltaStateful by merging exported entries into
// the live cache (expired ones are skipped).
func (c *Cache) ImportDelta(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.importLocked(data, false)
}

// importLocked decodes a blob and, only if all of it is sound, upserts its
// still-fresh entries (into an empty cache when replace is set), advancing
// the local dirty epoch past every imported stamp. Called with mu held.
func (c *Cache) importLocked(data []byte, replace bool) error {
	r := nf.NewRecordReader(data)
	keys := make([]string, r.Count())
	entries := make([]entry, len(keys))
	for i := range keys {
		keys[i] = r.Text()
		entries[i] = entry{Expires: r.Time(), Seq: r.Uvarint(), Response: r.Bytes()}
		if i > 0 && keys[i-1] >= keys[i] {
			return fmt.Errorf("%w: httpcache entries out of key order", nf.ErrBadRecord)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if replace {
		c.entries = make(map[string]*entry, len(keys))
	}
	now := c.clk.Now()
	for i, k := range keys {
		e := &entries[i]
		if !now.Before(e.Expires) {
			continue
		}
		c.seq = max(c.seq, e.Seq)
		c.entries[k] = e
	}
	return nil
}

var (
	_ nf.Function      = (*Cache)(nil)
	_ nf.StatsReporter = (*Cache)(nil)
	_ nf.ClockSetter   = (*Cache)(nil)
	_ nf.DeltaStateful = (*Cache)(nil)
)
