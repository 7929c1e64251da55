package dnslb

import (
	"errors"
	"math"
	"testing"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

var (
	macC = packet.MAC{2, 0, 0, 0, 0, 1}
	macR = packet.MAC{2, 0, 0, 0, 0, 2}
	ipC  = packet.IP{10, 0, 0, 1}
	ipR  = packet.IP{10, 0, 0, 53} // resolver
	be1  = packet.IP{10, 1, 0, 1}
	be2  = packet.IP{10, 1, 0, 2}
)

func queryFrame(id uint16, name string) []byte {
	wire, _ := packet.NewDNSQuery(id, name).Append(nil)
	return packet.BuildUDP(macC, macR, ipC, ipR, 5353, 53, wire)
}

func responseFrame(id uint16, name string, addr packet.IP) []byte {
	q := packet.NewDNSQuery(id, name)
	wire, _ := packet.AnswerA(q, 60, addr).Append(nil)
	return packet.BuildUDP(macR, macC, ipR, ipC, 53, 5353, wire)
}

func decodeDNS(t *testing.T, frame []byte) *packet.DNSMessage {
	t.Helper()
	var p packet.Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("parse: %v", err)
	}
	var m packet.DNSMessage
	if err := m.Decode(p.UDP.Payload()); err != nil {
		t.Fatalf("dns decode: %v", err)
	}
	return &m
}

func TestRespondModeRoundRobin(t *testing.T) {
	b, err := New("lb", "svc.gnf", Respond, be1, be2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[packet.IP]int)
	for i := 0; i < 4; i++ {
		out := b.Process(nf.Outbound, queryFrame(uint16(i), "svc.gnf"))
		if len(out.Reverse) != 1 || len(out.Forward) != 0 {
			t.Fatalf("iteration %d: out = %+v", i, out)
		}
		m := decodeDNS(t, out.Reverse[0])
		if !m.Response || m.ID != uint16(i) || len(m.Answers) != 1 {
			t.Fatalf("answer = %+v", m)
		}
		seen[m.Answers[0].A]++
	}
	if seen[be1] != 2 || seen[be2] != 2 {
		t.Fatalf("round robin uneven: %v", seen)
	}
	// Reply frame must be addressed back to the client.
	out := b.Process(nf.Outbound, queryFrame(9, "svc.gnf"))
	var p packet.Parser
	p.Parse(out.Reverse[0])
	if p.IP.Dst != ipC || p.UDP.DstPort != 5353 || p.Eth.Dst != macC {
		t.Fatal("reply not addressed to querying client")
	}
}

func TestRespondIgnoresOtherNames(t *testing.T) {
	b, _ := New("lb", "svc.gnf", Respond, be1)
	out := b.Process(nf.Outbound, queryFrame(1, "other.example"))
	if len(out.Forward) != 1 || len(out.Reverse) != 0 {
		t.Fatalf("other name intercepted: %+v", out)
	}
}

func TestRewriteMode(t *testing.T) {
	b, _ := New("lb", "svc.gnf", RewriteResponses, be1, be2)
	// Queries pass through untouched.
	out := b.Process(nf.Outbound, queryFrame(1, "svc.gnf"))
	if len(out.Forward) != 1 || len(out.Reverse) != 0 {
		t.Fatalf("query not passed: %+v", out)
	}
	// Upstream response is rewritten to a backend.
	orig := packet.IP{99, 99, 99, 99}
	out = b.Process(nf.Inbound, responseFrame(1, "svc.gnf", orig))
	if len(out.Forward) != 1 {
		t.Fatalf("response lost: %+v", out)
	}
	m := decodeDNS(t, out.Forward[0])
	if m.Answers[0].A == orig {
		t.Fatal("answer not rewritten")
	}
	if m.Answers[0].A != be1 {
		t.Fatalf("rewritten to %v, want %v", m.Answers[0].A, be1)
	}
	// Responses for other names untouched.
	out = b.Process(nf.Inbound, responseFrame(2, "other.example", orig))
	m = decodeDNS(t, out.Forward[0])
	if m.Answers[0].A != orig {
		t.Fatal("foreign response rewritten")
	}
}

func TestNonDNSPasses(t *testing.T) {
	b, _ := New("lb", "svc.gnf", Respond, be1)
	frame := packet.BuildUDP(macC, macR, ipC, ipR, 1000, 2000, []byte("not dns"))
	out := b.Process(nf.Outbound, frame)
	if len(out.Forward) != 1 {
		t.Fatal("non-DNS UDP dropped")
	}
	tcp := packet.BuildTCP(macC, macR, ipC, ipR, 1000, 53, packet.TCPOptions{}, nil)
	if out = b.Process(nf.Outbound, tcp); len(out.Forward) != 1 {
		t.Fatal("TCP dropped")
	}
}

func TestEmptyPoolRejected(t *testing.T) {
	if _, err := New("lb", "svc.gnf", Respond); err == nil {
		t.Fatal("empty pool accepted")
	}
}

func TestStateRoundTripPreservesCursor(t *testing.T) {
	b1, _ := New("lb", "svc.gnf", Respond, be1, be2)
	b1.Process(nf.Outbound, queryFrame(1, "svc.gnf")) // served be1, cursor now at be2
	data, _, err := b1.ExportDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := New("lb", "svc.gnf", Respond, be1, be2)
	if err := b2.ImportDelta(data); err != nil {
		t.Fatal(err)
	}
	out := b2.Process(nf.Outbound, queryFrame(2, "svc.gnf"))
	m := decodeDNS(t, out.Reverse[0])
	if m.Answers[0].A != be2 {
		t.Fatalf("cursor lost in migration: got %v, want %v", m.Answers[0].A, be2)
	}
	stats := b2.NFStats()
	if stats["queries_answered"] != 2 {
		t.Fatalf("stats = %v", stats)
	}
	if err := b2.ImportDelta(data[:len(data)-1]); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("truncated record: %v", err)
	}
}

// TestImportedCursorAlwaysNamesABackend: whatever cursor a blob carries —
// the largest there is, the image of -1, which used to index the pool at
// -1 and panic on the next query — the balancer answers with a backend.
func TestImportedCursorAlwaysNamesABackend(t *testing.T) {
	for _, cursor := range []uint64{math.MaxUint64, 1 << 63, 7} {
		var w nf.RecordWriter
		w.Uvarint(cursor)
		w.Uvarint(0) // queries
		w.Uvarint(0) // rewrites
		w.Uvarint(0) // no backend served yet
		b, _ := New("lb", "svc.gnf", Respond, be1, be2)
		if err := b.ImportDelta(w); err != nil {
			t.Fatalf("cursor %d: %v", cursor, err)
		}
		out := b.Process(nf.Outbound, queryFrame(1, "svc.gnf"))
		if len(out.Reverse) != 1 {
			t.Fatalf("cursor %d: no answer: %+v", cursor, out)
		}
		if got, want := decodeDNS(t, out.Reverse[0]).Answers[0].A, []packet.IP{be1, be2}[cursor%2]; got != want {
			t.Fatalf("cursor %d: answered %v, want %v", cursor, got, want)
		}
	}
}

func TestFactory(t *testing.T) {
	fn, err := nf.Default.New("dnslb", "lb0", nf.Params{
		"service":  "cdn.gnf",
		"backends": "10.1.0.1, 10.1.0.2",
		"mode":     "rewrite",
	})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if fn.(*Balancer).Service() != "cdn.gnf" {
		t.Fatal("service lost")
	}
	if _, err := nf.Default.New("dnslb", "x", nf.Params{"backends": "banana"}); err == nil {
		t.Fatal("bad backend accepted")
	}
	if _, err := nf.Default.New("dnslb", "x", nf.Params{"backends": "1.2.3.4", "mode": "nope"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := nf.Default.New("dnslb", "x", nf.Params{}); err == nil {
		t.Fatal("missing backends accepted")
	}
}
