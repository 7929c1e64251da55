package httpcache_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/nf/httpcache"
	"gnf/internal/packet"
)

var (
	clientMAC = packet.MAC{2, 0, 0, 0, 0, 1}
	serverMAC = packet.MAC{2, 0, 0, 0, 0, 2}
	clientIP  = packet.IP{10, 0, 0, 1}
	serverIP  = packet.IP{10, 99, 0, 1}
)

// request builds a one-segment GET with the given client source port.
func request(srcPort uint16, host, path string, hdr map[string]string) []byte {
	payload := packet.BuildHTTPRequest("GET", host, path, hdr, nil)
	return packet.BuildTCP(clientMAC, serverMAC, clientIP, serverIP, srcPort, 80,
		packet.TCPOptions{Seq: 100, Ack: 7, Flags: packet.TCPAck | packet.TCPPsh}, payload)
}

// response builds the matching one-segment 200 response.
func response(dstPort uint16, body string, hdr map[string]string) []byte {
	payload := packet.BuildHTTPResponse(200, "OK", hdr, []byte(body))
	return packet.BuildTCP(serverMAC, clientMAC, serverIP, clientIP, 80, dstPort,
		packet.TCPOptions{Seq: 7, Ack: 200, Flags: packet.TCPAck | packet.TCPPsh}, payload)
}

// exchange pushes a miss (request out, response in) through the cache.
func exchange(t *testing.T, c *httpcache.Cache, srcPort uint16, host, path, body string) {
	t.Helper()
	out := c.Process(nf.Outbound, request(srcPort, host, path, nil))
	if len(out.Forward) != 1 || len(out.Reverse) != 0 {
		t.Fatalf("miss output = %+v", out)
	}
	in := c.Process(nf.Inbound, response(srcPort, body, nil))
	if len(in.Forward) != 1 {
		t.Fatalf("response output = %+v", in)
	}
}

func TestCacheMissThenHit(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0")
	c.SetClock(clk)
	exchange(t, c, 40000, "cdn.example", "/logo.png", "PNGDATA")
	if c.Len() != 1 {
		t.Fatalf("entries = %d", c.Len())
	}

	// Second request from another flow hits and is answered at the edge.
	out := c.Process(nf.Outbound, request(40001, "cdn.example", "/logo.png", nil))
	if len(out.Reverse) != 1 || len(out.Forward) != 0 {
		t.Fatalf("hit output = %+v", out)
	}
	var p packet.Parser
	if err := p.Parse(out.Reverse[0]); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Dst != clientMAC || p.IP.Dst != clientIP || p.TCP.DstPort != 40001 {
		t.Fatalf("reply addressing wrong: %+v %+v", p.Eth, p.IP)
	}
	resp, err := packet.ParseHTTPResponse(p.TCP.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "PNGDATA" {
		t.Fatalf("replayed response = %d %q", resp.StatusCode, resp.Body)
	}

	st := c.NFStats()
	if st["hits"] != 1 || st["misses"] != 1 || st["stores"] != 1 {
		t.Fatalf("stats = %v", st)
	}
	if st["bytes_saved"] == 0 {
		t.Fatal("bytes_saved not accounted")
	}
}

func TestCacheEntriesExpire(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0", httpcache.WithTTL(10*time.Second))
	c.SetClock(clk)
	exchange(t, c, 40000, "cdn.example", "/a", "AAA")

	clk.Advance(11 * time.Second)
	out := c.Process(nf.Outbound, request(40001, "cdn.example", "/a", nil))
	if len(out.Forward) != 1 {
		t.Fatalf("expired entry served: %+v", out)
	}
	if c.NFStats()["misses"] != 2 {
		t.Fatalf("stats = %v", c.NFStats())
	}
}

func TestCacheKeyIncludesHostAndPath(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0")
	c.SetClock(clk)
	exchange(t, c, 40000, "a.example", "/x", "FROM-A")
	exchange(t, c, 40001, "b.example", "/x", "FROM-B")
	exchange(t, c, 40002, "a.example", "/y", "A-Y")
	if c.Len() != 3 {
		t.Fatalf("entries = %d", c.Len())
	}
	out := c.Process(nf.Outbound, request(40003, "b.example", "/x", nil))
	if len(out.Reverse) != 1 {
		t.Fatalf("expected hit: %+v", out)
	}
	var p packet.Parser
	if err := p.Parse(out.Reverse[0]); err != nil {
		t.Fatal(err)
	}
	resp, _ := packet.ParseHTTPResponse(p.TCP.Payload())
	if string(resp.Body) != "FROM-B" {
		t.Fatalf("wrong entry served: %q", resp.Body)
	}
}

func TestCacheControlNoStoreBypasses(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0")
	c.SetClock(clk)

	// no-store on the request side.
	out := c.Process(nf.Outbound, request(40000, "x.example", "/", map[string]string{"Cache-Control": "no-store"}))
	if len(out.Forward) != 1 {
		t.Fatalf("bypass should forward: %+v", out)
	}

	// no-store on the response side.
	c.Process(nf.Outbound, request(40001, "y.example", "/", nil))
	c.Process(nf.Inbound, response(40001, "SECRET", map[string]string{"Cache-Control": "no-store"}))
	if c.Len() != 0 {
		t.Fatalf("no-store response cached: %d entries", c.Len())
	}

	// private responses don't cache either.
	c.Process(nf.Outbound, request(40002, "z.example", "/", nil))
	c.Process(nf.Inbound, response(40002, "ME-ONLY", map[string]string{"Cache-Control": "private"}))
	if c.Len() != 0 {
		t.Fatalf("private response cached: %d entries", c.Len())
	}
}

func TestNon200AndNonGETNotCached(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0")
	c.SetClock(clk)

	// POST passes through untouched.
	payload := packet.BuildHTTPRequest("POST", "x.example", "/submit", nil, []byte("data"))
	post := packet.BuildTCP(clientMAC, serverMAC, clientIP, serverIP, 40000, 80,
		packet.TCPOptions{Flags: packet.TCPAck | packet.TCPPsh}, payload)
	if out := c.Process(nf.Outbound, post); len(out.Forward) != 1 {
		t.Fatalf("POST output = %+v", out)
	}

	// 404 responses are not stored.
	c.Process(nf.Outbound, request(40001, "x.example", "/missing", nil))
	nf404 := packet.BuildTCP(serverMAC, clientMAC, serverIP, clientIP, 80, 40001,
		packet.TCPOptions{Flags: packet.TCPAck | packet.TCPPsh},
		packet.BuildHTTPResponse(404, "Not Found", nil, []byte("nope")))
	c.Process(nf.Inbound, nf404)
	if c.Len() != 0 {
		t.Fatalf("404 cached: %d entries", c.Len())
	}
}

func TestCacheEvictsAtCapacity(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0", httpcache.WithMaxEntries(2))
	c.SetClock(clk)
	exchange(t, c, 40000, "a.example", "/1", "1")
	clk.Advance(time.Second)
	exchange(t, c, 40001, "a.example", "/2", "2")
	clk.Advance(time.Second)
	exchange(t, c, 40002, "a.example", "/3", "3")
	if c.Len() != 2 {
		t.Fatalf("entries = %d", c.Len())
	}
	if c.NFStats()["evictions"] != 1 {
		t.Fatalf("stats = %v", c.NFStats())
	}
	// The oldest entry (/1) is the victim.
	if out := c.Process(nf.Outbound, request(40003, "a.example", "/1", nil)); len(out.Reverse) != 0 {
		t.Fatal("evicted entry still served")
	}
}

func TestStateExportImportRoundTrip(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0", httpcache.WithTTL(time.Minute))
	c.SetClock(clk)
	exchange(t, c, 40000, "cdn.example", "/logo", "LOGO")
	exchange(t, c, 40001, "cdn.example", "/app.js", "JS")

	state, _, err := c.ExportDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := httpcache.New("c1", httpcache.WithTTL(time.Minute))
	fresh.SetClock(clk)
	if err := fresh.ImportDelta(state); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2 {
		t.Fatalf("imported entries = %d", fresh.Len())
	}
	// The migrated cache serves hits immediately — the paper's roaming
	// user keeps a warm cache.
	if out := fresh.Process(nf.Outbound, request(40002, "cdn.example", "/logo", nil)); len(out.Reverse) != 1 {
		t.Fatalf("warm cache missed: %+v", out)
	}

	// Import drops entries that expired in transit.
	clk.Advance(2 * time.Minute)
	stale := httpcache.New("c2", httpcache.WithTTL(time.Minute))
	stale.SetClock(clk)
	if err := stale.ImportDelta(state); err != nil {
		t.Fatal(err)
	}
	if stale.Len() != 0 {
		t.Fatalf("stale entries imported: %d", stale.Len())
	}
	// Truncated state errors.
	if err := stale.ImportDelta(state[:len(state)-1]); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestFactoryParams(t *testing.T) {
	fn, err := nf.Default.New("httpcache", "c0", nf.Params{"ttl": "5s", "port": "8080", "max": "16"})
	if err != nil {
		t.Fatal(err)
	}
	if fn.Kind() != "httpcache" || fn.Name() != "c0" {
		t.Fatalf("fn = %s/%s", fn.Kind(), fn.Name())
	}
	for _, bad := range []nf.Params{
		{"ttl": "xx"}, {"port": "70000"}, {"max": "many"},
	} {
		if _, err := nf.Default.New("httpcache", "c0", bad); err == nil {
			t.Fatalf("params %v accepted", bad)
		}
	}
}

func TestPortRestriction(t *testing.T) {
	clk := clock.NewVirtual()
	c := httpcache.New("c0", httpcache.WithPort(8080))
	c.SetClock(clk)
	// Port 80 traffic is ignored by an 8080-only cache.
	out := c.Process(nf.Outbound, request(40000, "a.example", "/", nil))
	if len(out.Forward) != 1 {
		t.Fatalf("output = %+v", out)
	}
	if st := c.NFStats(); st["misses"] != 0 {
		t.Fatalf("stats = %v", st)
	}
}

func TestNonHTTPTrafficPassesThrough(t *testing.T) {
	c := httpcache.New("c0")
	// UDP frame.
	udp := packet.BuildUDP(clientMAC, serverMAC, clientIP, serverIP, 1000, 2000, []byte("x"))
	if out := c.Process(nf.Outbound, udp); len(out.Forward) != 1 {
		t.Fatalf("udp output = %+v", out)
	}
	// Garbage TCP payload.
	junk := packet.BuildTCP(clientMAC, serverMAC, clientIP, serverIP, 1000, 80,
		packet.TCPOptions{Flags: packet.TCPAck}, []byte(strings.Repeat("z", 32)))
	if out := c.Process(nf.Outbound, junk); len(out.Forward) != 1 {
		t.Fatalf("junk output = %+v", out)
	}
	// Non-parseable frame.
	if out := c.Process(nf.Outbound, []byte{1, 2, 3}); len(out.Forward) != 1 {
		t.Fatalf("short frame output = %+v", out)
	}
}
