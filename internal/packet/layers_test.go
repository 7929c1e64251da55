package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0xaa}
	macB = MAC{0x02, 0, 0, 0, 0, 0xbb}
	ipA  = IP{10, 0, 0, 1}
	ipB  = IP{10, 0, 0, 2}
)

func TestBuildUDPRoundTrip(t *testing.T) {
	payload := []byte("hello edge")
	frame := BuildUDP(macA, macB, ipA, ipB, 5353, 53, payload)

	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.Has(LayerEthernet) || !p.Has(LayerIPv4) || !p.Has(LayerUDP) {
		t.Fatalf("layers = %v", p.Layers())
	}
	if p.Eth.Src != macA || p.Eth.Dst != macB || p.Eth.EtherType != EtherTypeIPv4 {
		t.Fatalf("ethernet = %+v", p.Eth)
	}
	if p.IP.Src != ipA || p.IP.Dst != ipB || p.IP.Proto != ProtoUDP {
		t.Fatalf("ip = %+v", p.IP)
	}
	if !p.IP.ChecksumOK() {
		t.Fatal("IP checksum invalid")
	}
	if p.UDP.SrcPort != 5353 || p.UDP.DstPort != 53 {
		t.Fatalf("udp ports = %d->%d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	if !bytes.Equal(p.UDP.Payload(), payload) {
		t.Fatalf("payload = %q", p.UDP.Payload())
	}
	if !bytes.Equal(p.TransportPayload(), payload) {
		t.Fatal("TransportPayload mismatch")
	}
	// Verify the UDP checksum is valid by recomputation over the segment.
	seg := p.IP.Payload()
	if ck := transportChecksum(ipA, ipB, ProtoUDP, seg); ck != 0 && ck != 0xffff {
		t.Fatalf("udp checksum residue = %#x", ck)
	}
	ft, ok := p.FiveTuple()
	if !ok || ft.Src.Port != 5353 || ft.Dst.Port != 53 || ft.Proto != ProtoUDP {
		t.Fatalf("FiveTuple = %v, %v", ft, ok)
	}
}

// TestBadHeaderChecksumParsesAndReportsFalse holds Decode to not judging
// the header checksum: a frame with one header byte flipped parses to the
// same five-tuple, and only ChecksumOK, which sums the header when it is
// called, tells the two apart.
func TestBadHeaderChecksumParsesAndReportsFalse(t *testing.T) {
	frame := BuildUDP(macA, macB, ipA, ipB, 5353, 53, []byte("hello edge"))
	var p Parser
	if err := p.Parse(frame); err != nil || !p.IP.ChecksumOK() {
		t.Fatalf("original frame: %v, header checksum ok %v", err, p.IP.ChecksumOK())
	}
	want, _ := p.FiveTuple()
	// TOS, ID, TTL and the checksum itself: bytes no parse rejects.
	for _, off := range []int{1, 4, 5, 8, 10, 11} {
		bad := append([]byte(nil), frame...)
		bad[EthernetHeaderLen+off] ^= 0x10
		if err := p.Parse(bad); err != nil {
			t.Fatalf("header byte %d flipped: %v", off, err)
		}
		if ft, ok := p.FiveTuple(); !ok || ft != want {
			t.Fatalf("header byte %d flipped: five-tuple %v, %v, want %v", off, ft, ok, want)
		}
		if p.IP.ChecksumOK() {
			t.Fatalf("header byte %d flipped: checksum reported ok", off)
		}
	}
	// ChecksumOK reads the bytes as they are when it is called.
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	frame[EthernetHeaderLen+8] ^= 0x10
	if p.IP.ChecksumOK() {
		t.Fatal("checksum reported ok over a header flipped after the parse")
	}
	frame[EthernetHeaderLen+8] ^= 0x10
	if !p.IP.ChecksumOK() {
		t.Fatal("checksum reported bad over the header restored")
	}
}

func TestBuildTCPRoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	frame := BuildTCP(macA, macB, ipA, ipB, 43210, 80, TCPOptions{Seq: 7, Ack: 9, Flags: TCPAck | TCPPsh}, payload)
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.Has(LayerTCP) {
		t.Fatalf("layers = %v", p.Layers())
	}
	tcp := p.TCP
	if tcp.SrcPort != 43210 || tcp.DstPort != 80 || tcp.Seq != 7 || tcp.Ack != 9 {
		t.Fatalf("tcp = %+v", tcp)
	}
	if !tcp.HasFlag(TCPAck) || !tcp.HasFlag(TCPPsh) || tcp.HasFlag(TCPSyn) {
		t.Fatalf("flags = %#x", tcp.Flags)
	}
	if !bytes.Equal(tcp.Payload(), payload) {
		t.Fatal("payload mismatch")
	}
	if ck := transportChecksum(ipA, ipB, ProtoTCP, p.IP.Payload()); ck != 0 {
		t.Fatalf("tcp checksum residue = %#x", ck)
	}
}

func TestBuildICMPEchoRoundTrip(t *testing.T) {
	frame := BuildICMPEcho(macA, macB, ipA, ipB, ICMPEchoRequest, 42, 7, []byte("ping"))
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.Has(LayerICMP) {
		t.Fatalf("layers = %v", p.Layers())
	}
	ic := p.ICMP
	if ic.Type != ICMPEchoRequest || ic.ID != 42 || ic.Seq != 7 || !bytes.Equal(ic.Payload(), []byte("ping")) {
		t.Fatalf("icmp = %+v", ic)
	}
	if Checksum(p.IP.Payload()) != 0 {
		t.Fatal("icmp checksum residue")
	}
	ft, ok := p.FiveTuple()
	if !ok || ft.Proto != ProtoICMP || ft.Src.Port != 0 {
		t.Fatalf("icmp FiveTuple = %v %v", ft, ok)
	}
}

func TestBuildARPRoundTrip(t *testing.T) {
	frame := BuildARP(ARPRequest, macA, ipA, MAC{}, ipB)
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.Has(LayerARP) {
		t.Fatalf("layers = %v", p.Layers())
	}
	if p.Eth.Dst != BroadcastMAC {
		t.Fatal("ARP request not broadcast")
	}
	if p.ARP.Op != ARPRequest || p.ARP.SenderIP != ipA || p.ARP.TargetIP != ipB {
		t.Fatalf("arp = %+v", p.ARP)
	}
	if _, ok := p.FiveTuple(); ok {
		t.Fatal("ARP produced a five-tuple")
	}

	reply := BuildARP(ARPReply, macB, ipB, macA, ipA)
	if err := p.Parse(reply); err != nil {
		t.Fatalf("Parse reply: %v", err)
	}
	if p.Eth.Dst != macA || p.ARP.Op != ARPReply {
		t.Fatalf("reply eth=%v op=%d", p.Eth.Dst, p.ARP.Op)
	}
}

func TestDecodeTruncated(t *testing.T) {
	var eth Ethernet
	if err := eth.Decode(make([]byte, 13)); err != ErrTruncated {
		t.Fatalf("eth: %v", err)
	}
	var ip IPv4
	if err := ip.Decode(make([]byte, 19)); err != ErrTruncated {
		t.Fatalf("ip: %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 0x60 // version 6
	if err := ip.Decode(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	bad[0] = 0x43 // IHL 3 words < 5
	if err := ip.Decode(bad); err != ErrBadHeader {
		t.Fatalf("ihl: %v", err)
	}
	var udp UDP
	if err := udp.Decode(make([]byte, 7)); err != ErrTruncated {
		t.Fatalf("udp: %v", err)
	}
	var tcp TCP
	if err := tcp.Decode(make([]byte, 19)); err != ErrTruncated {
		t.Fatalf("tcp: %v", err)
	}
	var ic ICMP
	if err := ic.Decode(make([]byte, 7)); err != ErrTruncated {
		t.Fatalf("icmp: %v", err)
	}
	var arp ARP
	if err := arp.Decode(make([]byte, 27)); err != ErrTruncated {
		t.Fatalf("arp: %v", err)
	}
}

func TestIPv4TotalLenBoundsPayload(t *testing.T) {
	frame := BuildUDP(macA, macB, ipA, ipB, 1, 2, []byte("abcd"))
	// Append trailing garbage (e.g. Ethernet padding) — payload must stay
	// bounded by TotalLen.
	frame = append(frame, 0xff, 0xff, 0xff)
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := p.UDP.Payload(); !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("payload leaked padding: %q", got)
	}
}

func TestParserUnknownEtherType(t *testing.T) {
	eth := Ethernet{Dst: macB, Src: macA, EtherType: 0x86dd} // IPv6
	frame := eth.AppendHeader(nil)
	frame = append(frame, 1, 2, 3)
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.Has(LayerPayload) || p.Has(LayerIPv4) {
		t.Fatalf("layers = %v", p.Layers())
	}
	if p.TransportPayload() != nil {
		t.Fatal("unexpected transport payload")
	}
}

// fragmentOf cuts bytes [from, to) of whole's IP payload into a fragment of
// its own with the given flags-and-offset word (MF is 1<<13, the offset is in
// 8-byte units), lengths and header checksum fixed up.
func fragmentOf(whole []byte, flagsAndOffset uint16, from, to int) []byte {
	l4 := EthernetHeaderLen + IPv4HeaderLen
	f := append(Clone(whole[:l4]), whole[l4+from:l4+to]...)
	ipb := f[EthernetHeaderLen:]
	binary.BigEndian.PutUint16(ipb[2:4], uint16(IPv4HeaderLen+to-from))
	binary.BigEndian.PutUint16(ipb[6:8], flagsAndOffset)
	ipb[10], ipb[11] = 0, 0
	binary.BigEndian.PutUint16(ipb[10:12], Checksum(ipb[:IPv4HeaderLen]))
	return f
}

// TestParserFragments: only a datagram's first fragment carries its transport
// header. A middle or last fragment is payload, like an unknown protocol:
// zero ports in its flow key, no five-tuple, no transport payload — were it
// decoded, its first payload bytes would read as "ports". A first fragment
// is the datagram's flow, even a UDP one, whose header's Length counts the
// bytes in later fragments: its payload is what the fragment holds.
func TestParserFragments(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 64)
	tcp := BuildTCP(macA, macB, ipA, ipB, 43210, 80, TCPOptions{Seq: 7, Flags: TCPAck}, payload)
	udp := BuildUDP(macA, macB, ipA, ipB, 5353, 53, payload)
	const mf = 1 << 13
	for _, c := range []struct {
		name           string
		whole          []byte
		flagsAndOffset uint16
		from, to       int
	}{
		{"first", tcp, mf, 0, 40},
		{"first of a UDP datagram", udp, mf, 0, 40},
		{"middle", tcp, mf | 40/8, 40, 64},
		{"last", tcp, 64 / 8, 64, TCPHeaderLen + 64},
		{"last of a UDP datagram", udp, 64 / 8, 64, UDPHeaderLen + 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			var p Parser
			if err := p.Parse(fragmentOf(c.whole, c.flagsAndOffset, c.from, c.to)); err != nil {
				t.Fatal(err)
			}
			key := p.FlowKey()
			ft, ok := p.FiveTuple()
			if c.from == 0 {
				var w Parser
				if err := w.Parse(c.whole); err != nil {
					t.Fatal(err)
				}
				wft, _ := w.FiveTuple()
				layers := p.Layers()
				if len(layers) != 3 || layers[2] != w.Layers()[2] || key != w.FlowKey() || !ok || ft != wft || ft.Src.Port == 0 {
					t.Fatalf("first fragment: layers %v, flow key %+v, five-tuple %v %v; the whole datagram's %v, %+v, %v",
						layers, key, ft, ok, w.Layers(), w.FlowKey(), wft)
				}
				if got := p.TransportPayload(); !bytes.Equal(got, w.TransportPayload()[:len(got)]) || len(got) == 0 {
					t.Fatalf("first fragment's transport payload %x", got)
				}
				return
			}
			if p.Has(LayerTCP) || p.Has(LayerUDP) || !p.Has(LayerPayload) {
				t.Fatalf("layers = %v, want Ethernet, IPv4, Payload", p.Layers())
			}
			if key.SrcPort != 0 || key.DstPort != 0 || key.SrcIP != ipA || key.Proto != p.IP.Proto {
				t.Fatalf("flow key = %+v, want the addresses and protocol with zero ports", key)
			}
			if ok || p.TransportPayload() != nil {
				t.Fatalf("five-tuple %v %v, transport payload %x", ft, ok, p.TransportPayload())
			}
		})
	}
}

// Property: build->parse is the identity on addresses, ports and payload
// for arbitrary UDP payloads.
func TestUDPBuildParseIdentityProperty(t *testing.T) {
	f := func(sp, dp uint16, sa, da [4]byte, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame := BuildUDP(macA, macB, IP(sa), IP(da), sp, dp, payload)
		var p Parser
		if err := p.Parse(frame); err != nil {
			return false
		}
		return p.IP.Src == IP(sa) && p.IP.Dst == IP(da) &&
			p.UDP.SrcPort == sp && p.UDP.DstPort == dp &&
			bytes.Equal(p.UDP.Payload(), payload) && p.IP.ChecksumOK()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: TCP build->parse identity.
func TestTCPBuildParseIdentityProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		frame := BuildTCP(macA, macB, ipA, ipB, sp, dp, TCPOptions{Seq: seq, Ack: ack, Flags: flags}, payload)
		var p Parser
		if err := p.Parse(frame); err != nil {
			return false
		}
		return p.TCP.SrcPort == sp && p.TCP.DstPort == dp &&
			p.TCP.Seq == seq && p.TCP.Ack == ack && p.TCP.Flags == flags &&
			bytes.Equal(p.TCP.Payload(), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteNATAndChecksums(t *testing.T) {
	frame := BuildUDP(macA, macB, ipA, ipB, 1234, 53, []byte("query"))
	newSrc := IP{192, 168, 1, 100}
	newPort := uint16(40001)
	rw := Rewrite{SrcIP: &newSrc, SrcPort: &newPort, DecrementTTL: true}
	if err := rw.Apply(frame); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.IP.Src != newSrc || p.UDP.SrcPort != newPort {
		t.Fatalf("rewrite ignored: %v %d", p.IP.Src, p.UDP.SrcPort)
	}
	if p.IP.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", p.IP.TTL)
	}
	if !p.IP.ChecksumOK() {
		t.Fatal("IP checksum broken by rewrite")
	}
	if ck := transportChecksum(newSrc, ipB, ProtoUDP, p.IP.Payload()); ck != 0 && ck != 0xffff {
		t.Fatalf("udp checksum residue after rewrite = %#x", ck)
	}
}

func TestRewriteTCP(t *testing.T) {
	frame := BuildTCP(macA, macB, ipA, ipB, 1000, 80, TCPOptions{Flags: TCPSyn}, nil)
	newDst := IP{172, 16, 0, 9}
	newPort := uint16(8080)
	newMAC := MAC{2, 2, 2, 2, 2, 2}
	rw := Rewrite{DstIP: &newDst, DstPort: &newPort, DstMAC: &newMAC}
	if err := rw.Apply(frame); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Eth.Dst != newMAC || p.IP.Dst != newDst || p.TCP.DstPort != 8080 {
		t.Fatal("TCP rewrite incomplete")
	}
	if ck := transportChecksum(ipA, newDst, ProtoTCP, p.IP.Payload()); ck != 0 {
		t.Fatalf("tcp checksum residue = %#x", ck)
	}
}

func TestRewriteOnARPFrame(t *testing.T) {
	frame := BuildARP(ARPRequest, macA, ipA, MAC{}, ipB)
	newIP := IP{1, 1, 1, 1}
	if err := (Rewrite{SrcIP: &newIP}).Apply(frame); err != ErrBadHeader {
		t.Fatalf("expected ErrBadHeader, got %v", err)
	}
	// MAC-only rewrite is fine on ARP frames.
	m := MAC{9, 9, 9, 9, 9, 9}
	if err := (Rewrite{SrcMAC: &m}).Apply(frame); err != nil {
		t.Fatalf("MAC rewrite on ARP: %v", err)
	}
}

func TestReplaceUDPPayload(t *testing.T) {
	frame := BuildUDP(macA, macB, ipA, ipB, 53, 5353, []byte("original"))
	out, err := ReplaceUDPPayload(frame, []byte("replaced-with-longer-payload"))
	if err != nil {
		t.Fatalf("ReplaceUDPPayload: %v", err)
	}
	var p Parser
	if err := p.Parse(out); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if string(p.UDP.Payload()) != "replaced-with-longer-payload" {
		t.Fatalf("payload = %q", p.UDP.Payload())
	}
	if p.UDP.SrcPort != 53 || p.IP.Dst != ipB {
		t.Fatal("addressing lost in replacement")
	}
	if _, err := ReplaceUDPPayload(BuildARP(ARPRequest, macA, ipA, MAC{}, ipB), nil); err == nil {
		t.Fatal("ReplaceUDPPayload accepted ARP frame")
	}
	tcpf := BuildTCP(macA, macB, ipA, ipB, 1, 2, TCPOptions{}, nil)
	if _, err := ReplaceUDPPayload(tcpf, nil); err == nil {
		t.Fatal("ReplaceUDPPayload accepted TCP frame")
	}
}
