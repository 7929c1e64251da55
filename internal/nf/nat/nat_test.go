package nat

import (
	"errors"
	"testing"
	"testing/quick"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

var (
	macC  = packet.MAC{2, 0, 0, 0, 0, 1}
	macS  = packet.MAC{2, 0, 0, 0, 0, 2}
	ipC   = packet.IP{10, 0, 0, 1}
	ipS   = packet.IP{8, 8, 8, 8}
	natIP = packet.IP{192, 168, 100, 1}
)

func outboundUDP(srcPort uint16) []byte {
	return packet.BuildUDP(macC, macS, ipC, ipS, srcPort, 53, []byte("q"))
}

func mustNAT(t *testing.T) *NAT {
	t.Helper()
	n, err := New("nat", natIP, 40000, 40010)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestOutboundTranslation(t *testing.T) {
	n := mustNAT(t)
	out := n.Process(nf.Outbound, outboundUDP(5000))
	if len(out.Forward) != 1 {
		t.Fatalf("out = %+v", out)
	}
	var p packet.Parser
	if err := p.Parse(out.Forward[0]); err != nil {
		t.Fatal(err)
	}
	if p.IP.Src != natIP {
		t.Fatalf("src = %v", p.IP.Src)
	}
	if p.UDP.SrcPort < 40000 || p.UDP.SrcPort > 40010 {
		t.Fatalf("nat port = %d", p.UDP.SrcPort)
	}
	if p.Eth.Src != VirtualMAC(natIP) {
		t.Fatal("src MAC not virtualized")
	}
	if !p.IP.ChecksumOK() {
		t.Fatal("IP checksum broken")
	}
	if n.Mappings() != 1 {
		t.Fatalf("mappings = %d", n.Mappings())
	}
}

// TestNonFirstFragmentMintsNoMapping: a fragment past the first carries no
// transport header, so its first payload bytes are not a source port to
// translate — it passes untouched and opens no mapping. The first fragment
// translates like the whole segment.
func TestNonFirstFragmentMintsNoMapping(t *testing.T) {
	n := mustNAT(t)
	// fragment sets the IP flags-and-offset word (MF is 1<<13, the offset in
	// 8-byte units) of a TCP frame; the bytes behind the header stand for
	// whatever part of the datagram that fragment holds.
	fragment := func(flagsAndOffset uint16) []byte {
		f := packet.BuildTCP(macC, macS, ipC, ipS, 5000, 80, packet.TCPOptions{Flags: packet.TCPAck}, make([]byte, 32))
		ipb := f[packet.EthernetHeaderLen:]
		ipb[6], ipb[7], ipb[10], ipb[11] = byte(flagsAndOffset>>8), byte(flagsAndOffset), 0, 0
		ck := packet.Checksum(ipb[:packet.IPv4HeaderLen])
		ipb[10], ipb[11] = byte(ck>>8), byte(ck)
		return f
	}
	out := n.Process(nf.Outbound, fragment(16/8)) // last fragment, at byte 16
	if len(out.Forward) != 1 || n.Mappings() != 0 {
		t.Fatalf("non-first fragment: forwarded %d, %d mappings minted", len(out.Forward), n.Mappings())
	}
	var p packet.Parser
	if err := p.Parse(out.Forward[0]); err != nil || p.IP.Src != ipC {
		t.Fatalf("non-first fragment rewritten: src %v, %v", p.IP.Src, err)
	}
	if out := n.Process(nf.Outbound, fragment(1<<13)); len(out.Forward) != 1 || n.Mappings() != 1 {
		t.Fatalf("first fragment: forwarded %d, %d mappings", len(out.Forward), n.Mappings())
	}
}

func TestRoundTripTranslation(t *testing.T) {
	n := mustNAT(t)
	out := n.Process(nf.Outbound, outboundUDP(5000))
	var p packet.Parser
	p.Parse(out.Forward[0])
	natPort := p.UDP.SrcPort

	// Server replies to the NAT address.
	reply := packet.BuildUDP(macS, VirtualMAC(natIP), ipS, natIP, 53, natPort, []byte("a"))
	back := n.Process(nf.Inbound, reply)
	if len(back.Forward) != 1 {
		t.Fatalf("reply dropped: %+v", back)
	}
	p.Parse(back.Forward[0])
	if p.IP.Dst != ipC || p.UDP.DstPort != 5000 {
		t.Fatalf("de-translation wrong: %v:%d", p.IP.Dst, p.UDP.DstPort)
	}
	if p.Eth.Dst != macC {
		t.Fatal("client MAC not restored")
	}
}

func TestSameFlowReusesMapping(t *testing.T) {
	n := mustNAT(t)
	o1 := n.Process(nf.Outbound, outboundUDP(5000))
	o2 := n.Process(nf.Outbound, outboundUDP(5000))
	var p1, p2 packet.Parser
	p1.Parse(o1.Forward[0])
	p2.Parse(o2.Forward[0])
	if p1.UDP.SrcPort != p2.UDP.SrcPort {
		t.Fatal("same flow mapped to different ports")
	}
	if n.Mappings() != 1 {
		t.Fatalf("mappings = %d", n.Mappings())
	}
}

func TestPortExhaustionDrops(t *testing.T) {
	n, _ := New("nat", natIP, 40000, 40002) // 3 ports
	for i := 0; i < 3; i++ {
		if len(n.Process(nf.Outbound, outboundUDP(uint16(6000+i))).Forward) != 1 {
			t.Fatalf("flow %d rejected early", i)
		}
	}
	if len(n.Process(nf.Outbound, outboundUDP(7000)).Forward) != 0 {
		t.Fatal("4th flow translated with 3-port pool")
	}
}

func TestUnsolicitedInboundDropped(t *testing.T) {
	n := mustNAT(t)
	stray := packet.BuildUDP(macS, VirtualMAC(natIP), ipS, natIP, 53, 40005, []byte("x"))
	if len(n.Process(nf.Inbound, stray).Forward) != 0 {
		t.Fatal("unsolicited inbound forwarded")
	}
}

func TestInboundForOtherIPPasses(t *testing.T) {
	n := mustNAT(t)
	other := packet.BuildUDP(macS, macC, ipS, ipC, 53, 1234, []byte("x"))
	if len(n.Process(nf.Inbound, other).Forward) != 1 {
		t.Fatal("non-NAT inbound dropped")
	}
}

func TestProxyARP(t *testing.T) {
	n := mustNAT(t)
	req := packet.BuildARP(packet.ARPRequest, macS, ipS, packet.MAC{}, natIP)
	out := n.Process(nf.Inbound, req)
	if len(out.Reverse) != 1 || len(out.Forward) != 0 {
		t.Fatalf("arp out = %+v", out)
	}
	var p packet.Parser
	p.Parse(out.Reverse[0])
	if !p.Has(packet.LayerARP) || p.ARP.Op != packet.ARPReply {
		t.Fatal("not an ARP reply")
	}
	if p.ARP.SenderHW != VirtualMAC(natIP) || p.ARP.SenderIP != natIP {
		t.Fatalf("arp reply = %+v", p.ARP)
	}
	// ARP for other addresses passes through.
	req2 := packet.BuildARP(packet.ARPRequest, macS, ipS, packet.MAC{}, ipC)
	if out := n.Process(nf.Inbound, req2); len(out.Forward) != 1 {
		t.Fatal("foreign ARP intercepted")
	}
}

func TestICMPPassesUntranslated(t *testing.T) {
	n := mustNAT(t)
	ping := packet.BuildICMPEcho(macC, macS, ipC, ipS, packet.ICMPEchoRequest, 1, 1, nil)
	if len(n.Process(nf.Outbound, ping).Forward) != 1 {
		t.Fatal("ICMP dropped")
	}
}

func TestStateMigrationKeepsFlows(t *testing.T) {
	n1 := mustNAT(t)
	out := n1.Process(nf.Outbound, outboundUDP(5000))
	var p packet.Parser
	p.Parse(out.Forward[0])
	natPort := p.UDP.SrcPort

	data, _, err := n1.ExportDelta(0)
	if err != nil {
		t.Fatal(err)
	}
	n2 := mustNAT(t)
	if err := n2.ImportDelta(data); err != nil {
		t.Fatal(err)
	}
	// Return traffic hits the migrated instance and still de-translates.
	reply := packet.BuildUDP(macS, VirtualMAC(natIP), ipS, natIP, 53, natPort, []byte("a"))
	back := n2.Process(nf.Inbound, reply)
	if len(back.Forward) != 1 {
		t.Fatal("migrated NAT lost the mapping")
	}
	p.Parse(back.Forward[0])
	if p.IP.Dst != ipC || p.UDP.DstPort != 5000 {
		t.Fatal("migrated de-translation wrong")
	}
	// The same outbound flow keeps its port after migration.
	o2 := n2.Process(nf.Outbound, outboundUDP(5000))
	p.Parse(o2.Forward[0])
	if p.UDP.SrcPort != natPort {
		t.Fatal("migration changed the flow's NAT port")
	}
	if err := n2.ImportDelta(data[:len(data)-1]); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("truncated record: %v", err)
	}
}

// natBlob writes a state blob with cursor 40000 and one mapping of ipC's
// UDP source port to a NAT port per pair, keys ascending.
func natBlob(pairs ...[2]uint16) []byte {
	var w nf.RecordWriter
	w.Uint16(40000)
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Uint8(packet.ProtoUDP)
		w.IP(ipC)
		w.Uint16(p[0])
		w.Uint16(p[1])
		w.MAC(macC)
		w.Uvarint(1)
	}
	return w
}

// TestImportRefusesAPortTwice: one NAT port answers for one client flow, so
// a blob that would leave two keys on it — within itself, or against a
// mapping already live that it does not move — is refused and leaves the
// table as it was.
func TestImportRefusesAPortTwice(t *testing.T) {
	n := mustNAT(t)
	if err := n.ImportDelta(natBlob([2]uint16{5000, 40001}, [2]uint16{5001, 40001})); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("two keys on one port in one blob: %v", err)
	}
	if err := n.ImportDelta(natBlob([2]uint16{5000, 39999})); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("a port outside the pool: %v", err)
	}
	if err := n.ImportDelta(natBlob([2]uint16{5000, 40001})); err != nil {
		t.Fatal(err)
	}
	if err := n.ImportDelta(natBlob([2]uint16{5001, 40001})); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("a delta's key on a live key's port: %v", err)
	}
	if n.Mappings() != 1 {
		t.Fatalf("refused delta left %d mappings", n.Mappings())
	}
	// The live key itself may move to another port.
	if err := n.ImportDelta(natBlob([2]uint16{5000, 40002})); err != nil {
		t.Fatal(err)
	}
	if err := n.ImportDelta(natBlob([2]uint16{5001, 40001})); err != nil {
		t.Fatalf("the freed port: %v", err)
	}
	// One blob may hand a live key's port to another key if it moves that
	// key too; each port then answers for its new key.
	if err := n.ImportDelta(natBlob([2]uint16{5000, 40001}, [2]uint16{5001, 40003})); err != nil {
		t.Fatalf("a port swapped within one blob: %v", err)
	}
	for natPort, client := range map[uint16]uint16{40001: 5000, 40003: 5001} {
		reply := packet.BuildUDP(macS, VirtualMAC(natIP), ipS, natIP, 53, natPort, []byte("a"))
		back := n.Process(nf.Inbound, reply)
		var p packet.Parser
		if len(back.Forward) != 1 || p.Parse(back.Forward[0]) != nil || p.UDP.DstPort != client {
			t.Fatalf("a reply to NAT port %d does not reach client port %d: %+v", natPort, client, back)
		}
	}
}

func TestBadConstruction(t *testing.T) {
	if _, err := New("n", natIP, 0, 10); err == nil {
		t.Fatal("lo=0 accepted")
	}
	if _, err := New("n", natIP, 100, 50); err == nil {
		t.Fatal("hi<lo accepted")
	}
}

func TestFactory(t *testing.T) {
	fn, err := nf.Default.New("nat", "n0", nf.Params{"nat_ip": "192.168.1.1", "ports": "1000-2000"})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if fn.(*NAT).NATIP() != (packet.IP{192, 168, 1, 1}) {
		t.Fatal("nat ip lost")
	}
	if _, err := nf.Default.New("nat", "x", nf.Params{}); err == nil {
		t.Fatal("missing nat_ip accepted")
	}
	if _, err := nf.Default.New("nat", "x", nf.Params{"nat_ip": "1.2.3.4", "ports": "banana"}); err == nil {
		t.Fatal("bad ports accepted")
	}
}

// Property: forward/reverse translation is a bijection — any set of client
// flows maps to distinct NAT ports, and every reply de-translates to
// exactly its original flow.
func TestMappingBijectionProperty(t *testing.T) {
	f := func(portsRaw []uint16) bool {
		n, _ := New("n", natIP, 40000, 41000)
		seen := make(map[uint16]bool)
		used := make(map[uint16]uint16) // natPort -> srcPort
		for _, pr := range portsRaw {
			src := pr%5000 + 1
			if seen[src] {
				continue
			}
			seen[src] = true
			out := n.Process(nf.Outbound, outboundUDP(src))
			if len(out.Forward) != 1 {
				return false
			}
			var p packet.Parser
			if err := p.Parse(out.Forward[0]); err != nil {
				return false
			}
			np := p.UDP.SrcPort
			if _, dup := used[np]; dup {
				return false // two flows share a NAT port
			}
			used[np] = src
		}
		for np, src := range used {
			reply := packet.BuildUDP(macS, VirtualMAC(natIP), ipS, natIP, 53, np, nil)
			back := n.Process(nf.Inbound, reply)
			if len(back.Forward) != 1 {
				return false
			}
			var p packet.Parser
			if err := p.Parse(back.Forward[0]); err != nil {
				return false
			}
			if p.UDP.DstPort != src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
