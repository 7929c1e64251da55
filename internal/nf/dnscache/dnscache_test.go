package dnscache

import (
	"errors"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

var (
	macC = packet.MAC{2, 0, 0, 0, 0, 1}
	macR = packet.MAC{2, 0, 0, 0, 0, 2}
	ipC  = packet.IP{10, 0, 0, 1}
	ipR  = packet.IP{10, 0, 0, 53}
	addr = packet.IP{93, 184, 216, 34}
)

func queryFrame(id uint16, name string) []byte {
	wire, _ := packet.NewDNSQuery(id, name).Append(nil)
	return packet.BuildUDP(macC, macR, ipC, ipR, 5353, 53, wire)
}

func responseFrame(id uint16, name string, ttl uint32, a packet.IP) []byte {
	q := packet.NewDNSQuery(id, name)
	wire, _ := packet.AnswerA(q, ttl, a).Append(nil)
	return packet.BuildUDP(macR, macC, ipR, ipC, 53, 5353, wire)
}

func newCache(t *testing.T, size int, maxTTL uint32) (*Cache, *clock.Virtual) {
	t.Helper()
	c := New("dc", size, maxTTL)
	clk := clock.NewVirtual()
	c.SetClock(clk)
	return c, clk
}

func decodeDNS(t *testing.T, frame []byte) *packet.DNSMessage {
	t.Helper()
	var p packet.Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	var m packet.DNSMessage
	if err := m.Decode(p.UDP.Payload()); err != nil {
		t.Fatal(err)
	}
	return &m
}

func TestMissThenHit(t *testing.T) {
	c, _ := newCache(t, 10, 300)
	// Miss: query forwarded upstream.
	out := c.Process(nf.Outbound, queryFrame(1, "example.com"))
	if len(out.Forward) != 1 || len(out.Reverse) != 0 {
		t.Fatalf("miss out = %+v", out)
	}
	// Response cached and forwarded to the client.
	out = c.Process(nf.Inbound, responseFrame(1, "example.com", 60, addr))
	if len(out.Forward) != 1 {
		t.Fatalf("response out = %+v", out)
	}
	if c.Len() != 1 {
		t.Fatalf("entries = %d", c.Len())
	}
	// Hit: answered at the edge, query consumed.
	out = c.Process(nf.Outbound, queryFrame(2, "example.com"))
	if len(out.Reverse) != 1 || len(out.Forward) != 0 {
		t.Fatalf("hit out = %+v", out)
	}
	m := decodeDNS(t, out.Reverse[0])
	if m.ID != 2 || !m.Response || m.Answers[0].A != addr {
		t.Fatalf("cached answer = %+v", m)
	}
	st := c.NFStats()
	if st["hits"] != 1 || st["misses"] != 1 || st["stores"] != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestTTLExpiryAndDecay(t *testing.T) {
	c, clk := newCache(t, 10, 300)
	c.Process(nf.Outbound, queryFrame(1, "example.com"))
	c.Process(nf.Inbound, responseFrame(1, "example.com", 60, addr))

	clk.Advance(20 * time.Second)
	out := c.Process(nf.Outbound, queryFrame(2, "example.com"))
	m := decodeDNS(t, out.Reverse[0])
	if m.Answers[0].TTL != 40 {
		t.Fatalf("decayed TTL = %d, want 40", m.Answers[0].TTL)
	}

	clk.Advance(41 * time.Second) // past expiry
	out = c.Process(nf.Outbound, queryFrame(3, "example.com"))
	if len(out.Forward) != 1 {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not evicted")
	}
}

func TestMaxTTLCap(t *testing.T) {
	c, clk := newCache(t, 10, 30)
	c.Process(nf.Inbound, responseFrame(1, "example.com", 86400, addr))
	clk.Advance(31 * time.Second)
	out := c.Process(nf.Outbound, queryFrame(2, "example.com"))
	if len(out.Forward) != 1 {
		t.Fatal("entry outlived the TTL cap")
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	c, _ := newCache(t, 2, 300)
	c.Process(nf.Inbound, responseFrame(1, "a.example", 10, addr))
	c.Process(nf.Inbound, responseFrame(2, "b.example", 60, addr))
	c.Process(nf.Inbound, responseFrame(3, "c.example", 60, addr)) // evicts a (soonest expiry)
	if c.Len() != 2 {
		t.Fatalf("entries = %d", c.Len())
	}
	if len(c.Process(nf.Outbound, queryFrame(4, "a.example")).Forward) != 1 {
		t.Fatal("evicted entry still served")
	}
	if len(c.Process(nf.Outbound, queryFrame(5, "c.example")).Reverse) != 1 {
		t.Fatal("new entry not cached")
	}
}

func TestNegativeAndNonAPassThrough(t *testing.T) {
	c, _ := newCache(t, 10, 300)
	// NXDOMAIN responses are not cached.
	q := packet.NewDNSQuery(1, "missing.example")
	wire, _ := packet.AnswerA(q, 60).Append(nil)
	frame := packet.BuildUDP(macR, macC, ipR, ipC, 53, 5353, wire)
	c.Process(nf.Inbound, frame)
	if c.Len() != 0 {
		t.Fatal("NXDOMAIN cached")
	}
	// Non-DNS UDP passes.
	other := packet.BuildUDP(macC, macR, ipC, ipR, 1, 2, []byte("x"))
	if len(c.Process(nf.Outbound, other).Forward) != 1 {
		t.Fatal("non-DNS dropped")
	}
	// Zero-TTL responses pass uncached.
	c.Process(nf.Inbound, responseFrame(2, "zero.example", 0, addr))
	if c.Len() != 0 {
		t.Fatal("zero-TTL cached")
	}
}

func TestStateMigrationKeepsWarmCache(t *testing.T) {
	c1, clk1 := newCache(t, 10, 300)
	c1.Process(nf.Inbound, responseFrame(1, "warm.example", 60, addr))
	data, _, err := c1.ExportDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	c2, clk2 := newCache(t, 10, 300)
	_ = clk1
	_ = clk2
	if err := c2.ImportDelta(data); err != nil {
		t.Fatal(err)
	}
	out := c2.Process(nf.Outbound, queryFrame(9, "warm.example"))
	if len(out.Reverse) != 1 {
		t.Fatal("migrated cache cold")
	}
	if err := c2.ImportDelta(data[:len(data)-1]); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestFactory(t *testing.T) {
	fn, err := nf.Default.New("dnscache", "dc0", nf.Params{"max_entries": "64", "max_ttl": "120"})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if fn.Kind() != "dnscache" {
		t.Fatal("kind")
	}
	if _, err := nf.Default.New("dnscache", "x", nf.Params{"max_entries": "nope"}); err == nil {
		t.Fatal("bad max_entries accepted")
	}
}
