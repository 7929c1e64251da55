package builtin_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/nf/firewall"
	"gnf/internal/nf/nat"
	"gnf/internal/packet"
)

// A frame has one path through an NF, ProcessBatch, and a single frame is a
// batch of one. The firewall, httpfilter, ratelimit, nat and counter decide
// once per same-flow run inside it; the caches and the balancer take their
// lock once per batch. These tests hold both to their contract: a batch of
// N through one instance and the same frames as N batches of one through
// its twin leave the same frames, counters, state and notifications behind.

var (
	eqNATIP    = packet.IP{198, 51, 100, 1}
	eqServerIP = packet.IP{93, 184, 216, 34}
	eqServer   = packet.MAC{2, 0, 0, 0, 9, 9}
)

type nfSpec struct {
	kind, name string
	params     nf.Params
}

// chain5Specs is fwd_chain5_1500B's chain as benchmark/inputs.go builds it.
func chain5Specs() []nfSpec {
	rules := make([]string, 128)
	for i := range rules {
		rules[i] = fmt.Sprintf("drop out tcp any any any %d", 10000+i)
	}
	return []nfSpec{
		{"firewall", "fw", nf.Params{"policy": "accept", "rules": strings.Join(rules, "; ")}},
		{"httpfilter", "web", nf.Params{"block_hosts": "ads.example"}},
		{"ratelimit", "rl", nf.Params{"rate_bps": "1000000000000", "burst_bytes": "10000000000"}},
		{"nat", "xlate", nf.Params{"nat_ip": eqNATIP.String(), "ports": "20000-60000"}},
		{"counter", "acct", nil},
	}
}

var equivalenceRows = []struct {
	name  string
	specs []nfSpec
	// hot names a counter the traffic must move; replies rows must also
	// see a batch answered in part, its replies leaving mid-batch.
	hot     string
	replies bool
}{
	{"firewall", []nfSpec{{"firewall", "fw", nf.Params{"policy": "accept", "rules": "drop out udp any 30003-30005 any any; " +
		"accept in udp any any any 20000-20007; drop in udp any any " + eqNATIP.String() + " any; drop any tcp any any any 8080; drop any icmp"}}}, "", false},
	{"firewall default drop", []nfSpec{{"firewall", "fw", nf.Params{"policy": "drop", "rules": "accept out udp any 30000-30009"}}}, "", false},
	{"httpfilter", []nfSpec{{"httpfilter", "web", nf.Params{"block_hosts": "ads.example", "rst": "true"}}}, "", false},
	{"ratelimit", []nfSpec{{"ratelimit", "rl", nf.Params{"rate_bps": "200000", "burst_bytes": "4000"}}}, "", false},
	{"ratelimit out only", []nfSpec{{"ratelimit", "rl", nf.Params{"rate_bps": "200000", "burst_bytes": "4000", "direction": "out"}}}, "", false},
	// Twelve ports for sixteen flows: the pool runs dry mid-test.
	{"nat", []nfSpec{{"nat", "xlate", nf.Params{"nat_ip": eqNATIP.String(), "ports": "20000-20011"}}}, "", false},
	{"counter", []nfSpec{{"counter", "acct", nil}}, "", false},
	{"counter alerting", []nfSpec{{"counter", "acct", nf.Params{"alert_pps": "40", "signatures": "evil,worse"}}}, "", false},
	{"chain5", chain5Specs(), "", false},
	// Two entries for four names, and answers living 0-3 s: the caches
	// evict and expire as the clock moves between batches.
	{"dnscache", []nfSpec{{"dnscache", "dns", nf.Params{"max_entries": "2", "max_ttl": "3"}}}, "dns.hits", true},
	{"dnslb", []nfSpec{{"dnslb", "lb", nf.Params{"service": "svc.gnf", "backends": "10.9.1.1,10.9.1.2,10.9.1.3"}}}, "lb.queries_answered", true},
	{"dnslb rewrite", []nfSpec{{"dnslb", "lb", nf.Params{"service": "svc.gnf", "backends": "10.9.1.1,10.9.1.2", "mode": "rewrite"}}}, "lb.responses_rewritten", false},
	{"httpcache", []nfSpec{{"httpcache", "web", nf.Params{"ttl": "10s", "max": "2", "port": "80"}}}, "web.hits", true},
}

// twin is one of the two instances a row compares.
type twin struct {
	chain *nf.Chain
	notes []string
}

func newTwin(t *testing.T, specs []nfSpec, clk clock.Clock) *twin {
	t.Helper()
	fns := make([]nf.Function, len(specs))
	for i, s := range specs {
		fn, err := nf.Default.New(s.kind, s.name, s.params)
		if err != nil {
			t.Fatal(err)
		}
		fns[i] = fn
	}
	tw := &twin{chain: nf.NewChain("eq", fns...)}
	tw.chain.SetClock(clk)
	tw.chain.SetNotifier(func(n nf.Notification) {
		tw.notes = append(tw.notes, fmt.Sprintf("%s %s %s @%s", n.Severity, n.NF, n.Message, n.At.Format(time.RFC3339Nano)))
	})
	return tw
}

// memberStates exports every stateful member. Records are written in key
// order, so equal state is equal bytes.
func (tw *twin) memberStates(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for _, fn := range tw.chain.Functions() {
		st, ok := fn.(nf.Stateful)
		if !ok {
			continue
		}
		data, _, err := st.ExportDelta(0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// trafficGen builds the batches: sixteen client flows toward one server
// and the return traffic toward the NAT address.
type trafficGen struct {
	rng *rand.Rand
	seq uint32
}

func (g *trafficGen) payload(n int) []byte {
	p := make([]byte, n)
	g.rng.Read(p)
	if n >= 8 {
		g.seq++
		binary.BigEndian.PutUint32(p, g.seq)
		if g.rng.Intn(40) == 0 {
			copy(p[4:], "evil")
		}
	}
	return p
}

func clientMAC(flow int) packet.MAC { return packet.MAC{2, 0, 0, 0, 1, byte(flow % 4)} }
func clientIP(flow int) packet.IP   { return packet.IP{10, 0, 0, byte(1 + flow%4)} }

// udp is one datagram of a flow: client to server outbound, server to the
// NAT's port for that flow (if it has one) inbound.
func (g *trafficGen) udp(dir nf.Direction, flow, size int) []byte {
	if dir == nf.Outbound {
		return packet.BuildUDP(clientMAC(flow), eqServer, clientIP(flow), eqServerIP, uint16(30000+flow), 53, g.payload(size))
	}
	dst := eqNATIP
	if flow%5 == 4 {
		dst = clientIP(flow) // not the NAT's to translate
	}
	return packet.BuildUDP(eqServer, nat.VirtualMAC(eqNATIP), eqServerIP, dst, 53, uint16(20000+flow), g.payload(size))
}

func (g *trafficGen) tcp(dir nf.Direction, flow int, dport uint16, body []byte) []byte {
	if dir == nf.Outbound {
		return packet.BuildTCP(clientMAC(flow), eqServer, clientIP(flow), eqServerIP, uint16(30000+flow), dport,
			packet.TCPOptions{Seq: g.rng.Uint32(), Ack: 1, Flags: packet.TCPAck | packet.TCPPsh}, body)
	}
	return packet.BuildTCP(eqServer, nat.VirtualMAC(eqNATIP), eqServerIP, eqNATIP, dport, uint16(20000+flow),
		packet.TCPOptions{Seq: g.rng.Uint32(), Ack: 1, Flags: packet.TCPAck}, body)
}

// train is n same-flow, same-length datagrams: one run.
func (g *trafficGen) train(dir nf.Direction, flow, n int) [][]byte {
	size := []int{18, 64, 200, 1458}[g.rng.Intn(4)]
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.udp(dir, flow, size)
	}
	return out
}

// dns is a query for name (outbound) or an answer to one (inbound).
func (g *trafficGen) dns(dir nf.Direction, flow int, name string) []byte {
	q := packet.NewDNSQuery(uint16(g.rng.Uint32()), name)
	if dir == nf.Outbound {
		wire, _ := q.Append(nil)
		return packet.BuildUDP(clientMAC(flow), eqServer, clientIP(flow), eqServerIP, uint16(30000+flow), 53, wire)
	}
	wire, _ := packet.AnswerA(q, uint32(g.rng.Intn(4)), packet.IP{10, 9, 0, byte(g.rng.Intn(250))}).Append(nil)
	return packet.BuildUDP(eqServer, clientMAC(flow), eqServerIP, clientIP(flow), 53, uint16(30000+flow), wire)
}

// http is a GET for page (outbound) or the server's answer on the flow
// (inbound).
func (g *trafficGen) http(dir nf.Direction, flow int, page string) []byte {
	opt := packet.TCPOptions{Seq: g.rng.Uint32(), Ack: g.rng.Uint32(), Flags: packet.TCPAck | packet.TCPPsh}
	if dir == nf.Outbound {
		get := packet.BuildHTTPRequest("GET", "www.example.com", page, nil, nil)
		return packet.BuildTCP(clientMAC(flow), eqServer, clientIP(flow), eqServerIP, uint16(30000+flow), 80, opt, get)
	}
	resp := packet.BuildHTTPResponse([]int{200, 200, 200, 404}[g.rng.Intn(4)], "x", nil, g.payload(40))
	return packet.BuildTCP(eqServer, clientMAC(flow), eqServerIP, clientIP(flow), 80, uint16(30000+flow), opt, resp)
}

func (g *trafficGen) batch(dir nf.Direction) [][]byte {
	flow := g.rng.Intn(16)
	switch g.rng.Intn(9) {
	case 0:
		return g.train(dir, flow, 32)
	case 1: // a run broken by frames cut short (below the prefix, and just below TotalLen) and one of another length
		b := g.train(dir, flow, 32)
		b[5] = b[5][:30]
		b[11] = b[11][:len(b[11])-1]
		b[17] = g.udp(dir, flow, 33)
		return b
	case 2: // singletons
		b := make([][]byte, 1+g.rng.Intn(12))
		for i := range b {
			b[i] = g.udp(dir, g.rng.Intn(16), 40)
		}
		return b
	case 3: // two flows interleaved, then the first again as a run
		other := (flow + 1 + g.rng.Intn(15)) % 16
		var b [][]byte
		for i := 0; i < 6; i++ {
			b = append(b, g.udp(dir, flow, 64), g.udp(dir, other, 64))
		}
		return append(b, g.train(dir, flow, 8)...)
	case 4: // runs of frames whose header checksum is wrong, and of datagrams sent without a UDP checksum
		b := g.train(dir, flow, 8)
		for _, f := range b {
			f[packet.EthernetHeaderLen+10] ^= 0x5a
		}
		noCk := g.train(dir, (flow+3)%16, 8)
		for _, f := range noCk {
			f[packet.EthernetHeaderLen+packet.IPv4HeaderLen+6], f[packet.EthernetHeaderLen+packet.IPv4HeaderLen+7] = 0, 0
		}
		return append(b, noCk...)
	case 5: // TCP: plain, HTTP allowed, HTTP blocked, a firewalled port, a train of segments
		get := func(host string) []byte {
			return packet.BuildHTTPRequest("GET", host, "/index.html", map[string]string{"User-Agent": "eq"}, nil)
		}
		b := [][]byte{
			g.tcp(dir, flow, 443, g.payload(50)),
			g.tcp(dir, flow, 80, get("www.example.com")),
			g.tcp(dir, flow, 80, get("cdn.ads.example")),
			g.tcp(dir, flow, 8080, g.payload(20)),
		}
		for i := 0; i < 6; i++ {
			b = append(b, g.tcp(dir, flow, 80, g.payload(100)))
		}
		return b
	case 6: // DNS for four names, one of them the balancer's
		names := []string{"svc.gnf", "a.example", "b.example", "c.example"}
		b := make([][]byte, 4+g.rng.Intn(12))
		for i := range b {
			b[i] = g.dns(dir, g.rng.Intn(16), names[g.rng.Intn(len(names))])
		}
		return b
	case 7: // HTTP for three pages
		pages := []string{"/a", "/b", "/c"}
		b := make([][]byte, 4+g.rng.Intn(12))
		for i := range b {
			b[i] = g.http(dir, g.rng.Intn(16), pages[g.rng.Intn(len(pages))])
		}
		return b
	default: // everything that is not a transport flow, around a short run
		vlan := packet.TagVLAN(g.udp(dir, flow, 30), 3, 100)
		b := [][]byte{
			packet.BuildARP(packet.ARPRequest, eqServer, eqServerIP, packet.MAC{}, eqNATIP),
			packet.BuildARP(packet.ARPRequest, eqServer, eqServerIP, packet.MAC{}, clientIP(flow)),
			packet.BuildARP(packet.ARPReply, clientMAC(flow), clientIP(flow), eqServer, eqServerIP),
			packet.BuildICMPEcho(clientMAC(flow), eqServer, clientIP(flow), eqServerIP, packet.ICMPEchoRequest, 7, 1, g.payload(24)),
			vlan,
			{1, 2, 3},
			append(append([]byte{}, vlan[:12]...), 0x86, 0xdd, 0, 0, 0, 0), // an EtherType nobody parses
		}
		b = append(b, g.train(dir, flow, 4)...)
		g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return b
	}
}

func cloneAll(frames [][]byte) [][]byte {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = packet.Clone(f)
	}
	return out
}

func sameFrames(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestBatchEqualsPerFrame(t *testing.T) {
	for _, row := range equivalenceRows {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", row.name, seed), func(t *testing.T) {
				clk := clock.NewVirtual()
				batched, single := newTwin(t, row.specs, clk), newTwin(t, row.specs, clk)
				g := &trafficGen{rng: rand.New(rand.NewSource(seed))}
				answeredInPart := 0
				for i := 0; i < 250; i++ {
					dir := nf.Outbound
					if g.rng.Intn(3) == 0 {
						dir = nf.Inbound
					}
					frames := g.batch(dir)

					var got nf.Output
					batched.chain.ProcessBatch(dir, cloneAll(frames), &got)
					var want nf.Output
					for _, f := range cloneAll(frames) {
						single.chain.ProcessBatch(dir, [][]byte{f}, &want)
					}
					if !sameFrames(got.Forward, want.Forward) || !sameFrames(got.Reverse, want.Reverse) {
						t.Fatalf("batch %d (%v, %d frames): the batch emits %d forward / %d reverse, its batches of one %d / %d, or their bytes differ",
							i, dir, len(frames), len(got.Forward), len(got.Reverse), len(want.Forward), len(want.Reverse))
					}
					if len(got.Forward) > 0 && len(got.Reverse) > 0 {
						answeredInPart++
					}
					if g, w := batched.chain.NFStats(), single.chain.NFStats(); !reflect.DeepEqual(g, w) {
						t.Fatalf("batch %d (%v): NFStats\nbatched   %v\nby ones   %v", i, dir, g, w)
					}
					clk.Advance(time.Duration(g.rng.Intn(300)) * time.Millisecond)
				}
				if g, w := batched.memberStates(t), single.memberStates(t); !sameFrames(g, w) {
					t.Fatalf("exported state\nbatched   %x\nby ones   %x", g, w)
				}
				if !reflect.DeepEqual(batched.notes, single.notes) {
					t.Fatalf("notifications\nbatched   %q\nby ones   %q", batched.notes, single.notes)
				}
				stats := batched.chain.NFStats()
				if len(stats) == 0 {
					t.Fatal("no counters compared")
				}
				if row.hot != "" && stats[row.hot] == 0 {
					t.Fatalf("%s stayed 0: the traffic never reached the path under test (%v)", row.hot, stats)
				}
				if row.replies && answeredInPart == 0 {
					t.Fatal("no batch was answered in part")
				}
			})
		}
	}
}

// TestRuleAppendedBetweenBatchesIsSeenByTheNextFrame: the firewall's run
// memo dies with the batch, so a rule added after a flow's batch decides
// that flow's very next frame.
func TestRuleAppendedBetweenBatchesIsSeenByTheNextFrame(t *testing.T) {
	fw := firewall.New("fw", firewall.Accept)
	g := &trafficGen{rng: rand.New(rand.NewSource(1))}
	var out nf.Output
	fw.ProcessBatch(nf.Outbound, g.train(nf.Outbound, 3, 32), &out)
	if len(out.Forward) != 32 {
		t.Fatalf("accepted %d of 32 before the rule", len(out.Forward))
	}
	rule, err := firewall.ParseRule("drop out udp any 30003")
	if err != nil {
		t.Fatal(err)
	}
	fw.AppendRule(rule)
	out = nf.Output{}
	fw.ProcessBatch(nf.Outbound, g.train(nf.Outbound, 3, 32), &out)
	if len(out.Forward) != 0 || fw.NFStats()["rule0_hits"] != 32 {
		t.Fatalf("after the rule: %d of 32 still accepted, rule hits %d", len(out.Forward), fw.NFStats()["rule0_hits"])
	}
}

// TestMappingImportedBetweenBatchesIsSeenByTheNextFrame: likewise the NAT's —
// a table merged in after a flow's batch translates that flow's next frame,
// and the port the blob moves that flow off goes to the blob's own key.
func TestMappingImportedBetweenBatchesIsSeenByTheNextFrame(t *testing.T) {
	natPortOf := func(frame []byte) uint16 {
		var p packet.Parser
		if err := p.Parse(frame); err != nil || p.IP.Src != eqNATIP {
			t.Fatalf("not translated: %v, src %v", err, p.IP.Src)
		}
		return p.UDP.SrcPort
	}
	g := &trafficGen{rng: rand.New(rand.NewSource(1))}

	// The donor has seen flows 0..2 before flow 3, so it maps flow 3 to the
	// fourth port; the importer, which sees flow 3 first, to the first.
	donor, _ := nat.New("donor", eqNATIP, 20000, 20100)
	for flow := 0; flow <= 3; flow++ {
		donor.Process(nf.Outbound, g.udp(nf.Outbound, flow, 20))
	}
	state, _, err := donor.ExportDelta(0)
	if err != nil {
		t.Fatal(err)
	}

	n, _ := nat.New("xlate", eqNATIP, 20000, 20100)
	var out nf.Output
	n.ProcessBatch(nf.Outbound, g.train(nf.Outbound, 3, 32), &out)
	if len(out.Forward) != 32 || natPortOf(out.Forward[31]) != 20000 {
		t.Fatalf("before the import: %d frames, port %d", len(out.Forward), natPortOf(out.Forward[31]))
	}
	if err := n.ImportDelta(state); err != nil {
		t.Fatal(err)
	}
	out = nf.Output{}
	n.ProcessBatch(nf.Outbound, g.train(nf.Outbound, 3, 32), &out)
	if len(out.Forward) != 32 || natPortOf(out.Forward[0]) != 20003 {
		t.Fatalf("after the import: %d frames, first leaves from port %d, want 20003", len(out.Forward), natPortOf(out.Forward[0]))
	}
}
