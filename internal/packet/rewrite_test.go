package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The reference Rewrite.Apply is judged against: overwrite the fields, then
// recompute every affected checksum from scratch with a two-bytes-a-step
// sum that shares nothing with the package's own. It is what Apply did
// before it went incremental, minus that version's two bugs (it computed a
// checksum for datagrams sent without one, and treated the payload of a
// non-first fragment as a transport header).

func refSum(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return sum
}

// ipLayout locates what Rewrite touches in a frame it accepts.
type ipLayout struct {
	ipb, l4 []byte
	l4ck    []byte // the transport checksum field, nil when the frame has none
	proto   uint8
}

func layoutOf(frame []byte) (ipLayout, bool) {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen || binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return ipLayout{}, false
	}
	ipb := frame[EthernetHeaderLen:]
	ihl, total := int(ipb[0]&0x0f)*4, int(binary.BigEndian.Uint16(ipb[2:4]))
	if ihl < IPv4HeaderLen || total < ihl || total > len(ipb) {
		return ipLayout{}, false
	}
	l := ipLayout{ipb: ipb[:ihl], l4: ipb[ihl:total], proto: ipb[9]}
	if binary.BigEndian.Uint16(ipb[6:8])&0x1fff != 0 {
		return l, true
	}
	switch {
	case l.proto == ProtoUDP && len(l.l4) >= UDPHeaderLen:
		l.l4ck = l.l4[6:8]
	case l.proto == ProtoTCP && len(l.l4) >= TCPHeaderLen:
		l.l4ck = l.l4[16:18]
	}
	return l, true
}

// l4Residual is the one's-complement sum of pseudo-header and segment,
// checksum field included: 0xffff when the checksum verifies, and off by k
// from it when the checksum is off by k.
func (l ipLayout) l4Residual() uint16 {
	sum := refSum(0, l.ipb[12:20]) + uint32(l.proto) + uint32(len(l.l4))
	return uint16(refSum(sum, l.l4))
}

func (l ipLayout) headerResidual() uint16 { return uint16(refSum(0, l.ipb)) }

// l4Verifies reports whether the frame carries a computed transport
// checksum over a whole datagram, and it is right.
func (l ipLayout) l4Verifies() bool {
	if l.l4ck == nil || binary.BigEndian.Uint16(l.ipb[6:8])&0x3fff != 0 { // MF or offset: a fragment
		return false
	}
	if l.proto == ProtoUDP && binary.BigEndian.Uint16(l.l4ck) == 0 {
		return false
	}
	return l.l4Residual() == 0xffff
}

// refApply returns what rw.Apply(frame) must leave behind when it succeeds.
func refApply(rw Rewrite, frame []byte) []byte {
	out := Clone(frame)
	if rw.SrcMAC != nil {
		copy(out[6:12], rw.SrcMAC[:])
	}
	if rw.DstMAC != nil {
		copy(out[0:6], rw.DstMAC[:])
	}
	l, ok := layoutOf(out)
	if !ok {
		return out
	}
	if rw.SrcIP != nil {
		copy(l.ipb[12:16], rw.SrcIP[:])
	}
	if rw.DstIP != nil {
		copy(l.ipb[16:20], rw.DstIP[:])
	}
	if rw.DecrementTTL && l.ipb[8] > 0 {
		l.ipb[8]--
	}
	l.ipb[10], l.ipb[11] = 0, 0
	binary.BigEndian.PutUint16(l.ipb[10:12], ^uint16(refSum(0, l.ipb)))
	if l.l4ck == nil {
		return out
	}
	if rw.SrcPort != nil {
		binary.BigEndian.PutUint16(l.l4[0:2], *rw.SrcPort)
	}
	if rw.DstPort != nil {
		binary.BigEndian.PutUint16(l.l4[2:4], *rw.DstPort)
	}
	if l.proto == ProtoUDP && binary.BigEndian.Uint16(l.l4ck) == 0 {
		return out
	}
	l.l4ck[0], l.l4ck[1] = 0, 0
	ck := ^l.l4Residual()
	if ck == 0 && l.proto == ProtoUDP {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(l.l4ck, ck)
	return out
}

var (
	rwSrcMAC, rwDstMAC   = MAC{2, 0, 0, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 2}
	rwSrcIP, rwDstIP     = IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	rwNewSrc, rwNewDst   = IP{192, 168, 7, 9}, IP{203, 0, 113, 77}
	rwNewMACa, rwNewMACb = MAC{2, 0x4e, 0x41, 0x54, 1, 1}, MAC{2, 9, 9, 9, 9, 9}
	rwNewSPort           = uint16(41000)
	rwNewDPort           = uint16(8053)
)

// rewriteOf builds the Rewrite that sets the fields named by mask's seven
// low bits.
func rewriteOf(mask uint8) Rewrite {
	var rw Rewrite
	if mask&1 != 0 {
		rw.SrcIP = &rwNewSrc
	}
	if mask&2 != 0 {
		rw.DstIP = &rwNewDst
	}
	if mask&4 != 0 {
		rw.SrcPort = &rwNewSPort
	}
	if mask&8 != 0 {
		rw.DstPort = &rwNewDPort
	}
	if mask&16 != 0 {
		rw.SrcMAC = &rwNewMACa
	}
	if mask&32 != 0 {
		rw.DstMAC = &rwNewMACb
	}
	rw.DecrementTTL = mask&64 != 0
	return rw
}

// withIPOptions returns frame with four bytes of IPv4 options (NOPs)
// spliced in: IHL 6, lengths and header checksum fixed, transport checksum
// untouched (options are not in the pseudo-header).
func withIPOptions(frame []byte) []byte {
	hdrEnd := EthernetHeaderLen + IPv4HeaderLen
	out := append(Clone(frame[:hdrEnd]), 1, 1, 1, 1)
	out = append(out, frame[hdrEnd:]...)
	ipb := out[EthernetHeaderLen:]
	ipb[0] = 0x46
	binary.BigEndian.PutUint16(ipb[2:4], binary.BigEndian.Uint16(ipb[2:4])+4)
	setHeaderChecksum(out)
	return out
}

func setHeaderChecksum(frame []byte) {
	ipb := frame[EthernetHeaderLen:]
	ihl := int(ipb[0]&0x0f) * 4
	ipb[10], ipb[11] = 0, 0
	binary.BigEndian.PutUint16(ipb[10:12], Checksum(ipb[:ihl]))
}

func withTTL(frame []byte, ttl uint8) []byte {
	out := Clone(frame)
	out[EthernetHeaderLen+8] = ttl
	setHeaderChecksum(out)
	return out
}

func payloadOf(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

func udpFrame(n int) []byte {
	return BuildUDP(rwSrcMAC, rwDstMAC, rwSrcIP, rwDstIP, 40000, 53, payloadOf(n))
}

func tcpFrame(n int) []byte {
	return BuildTCP(rwSrcMAC, rwDstMAC, rwSrcIP, rwDstIP, 40000, 80, TCPOptions{Seq: 7, Flags: TCPAck}, payloadOf(n))
}

// TestRewriteEveryFieldSubset drives every subset of Rewrite's seven fields
// over TCP and UDP, odd and even payload lengths, IP options, and TTL 0 and
// 1, against the from-scratch reference.
func TestRewriteEveryFieldSubset(t *testing.T) {
	frames := map[string][]byte{
		"udp even":    udpFrame(64),
		"udp odd":     udpFrame(65),
		"udp empty":   udpFrame(0),
		"tcp even":    tcpFrame(100),
		"tcp odd":     tcpFrame(101),
		"udp options": withIPOptions(udpFrame(33)),
		"tcp options": withIPOptions(tcpFrame(12)),
		"udp ttl 0":   withTTL(udpFrame(8), 0),
		"udp ttl 1":   withTTL(udpFrame(8), 1),
		"icmp":        BuildICMPEcho(rwSrcMAC, rwDstMAC, rwSrcIP, rwDstIP, ICMPEchoRequest, 1, 2, payloadOf(9)),
	}
	for name, frame := range frames {
		for mask := 0; mask < 128; mask++ {
			rw := rewriteOf(uint8(mask))
			got := Clone(frame)
			if err := rw.Apply(got); err != nil {
				t.Fatalf("%s mask %07b: %v", name, mask, err)
			}
			if want := refApply(rw, frame); !bytes.Equal(got, want) {
				t.Fatalf("%s mask %07b:\n got %x\nwant %x", name, mask, got, want)
			}
			var p Parser
			if err := p.Parse(got); err != nil || !p.IP.ChecksumOK() {
				t.Fatalf("%s mask %07b: rewritten frame parses %v, header checksum ok %v", name, mask, err, p.IP.ChecksumOK())
			}
			if l, _ := layoutOf(got); l.l4ck != nil && !l.l4Verifies() {
				t.Fatalf("%s mask %07b: transport checksum does not verify", name, mask)
			}
		}
	}
	for ttl, want := range map[string]uint8{"udp ttl 0": 0, "udp ttl 1": 0} {
		frame := Clone(frames[ttl])
		if err := (Rewrite{DecrementTTL: true}).Apply(frame); err != nil || frame[EthernetHeaderLen+8] != want {
			t.Fatalf("%s decremented to %d (%v)", ttl, frame[EthernetHeaderLen+8], err)
		}
	}
}

// TestRewriteLeavesUncomputedUDPChecksumAlone: a datagram sent with UDP
// checksum 0 ("not computed", RFC 768) must leave a NAT with checksum 0,
// not with one the NAT invented.
func TestRewriteLeavesUncomputedUDPChecksumAlone(t *testing.T) {
	for _, n := range []int{0, 17, 1458} {
		frame := udpFrame(n)
		ck := frame[EthernetHeaderLen+IPv4HeaderLen+6:][:2]
		ck[0], ck[1] = 0, 0
		if err := rewriteOf(0x7f).Apply(frame); err != nil {
			t.Fatal(err)
		}
		if ck[0] != 0 || ck[1] != 0 {
			t.Fatalf("payload %d: checksum 0 left as %x", n, ck)
		}
		var p Parser
		if err := p.Parse(frame); err != nil || p.IP.Src != rwNewSrc || p.UDP.SrcPort != rwNewSPort || p.UDP.DstPort != rwNewDPort {
			t.Fatalf("payload %d: rewrite did not take: %v %+v", n, err, p.UDP)
		}
	}
}

// TestRewritePreservesChecksumErrors: a checksum that is off by k going in
// is off by k coming out, so the receiver still sees the corruption. A
// from-scratch recompute would launder it into a valid one.
func TestRewritePreservesChecksumErrors(t *testing.T) {
	for name, frame := range map[string][]byte{"udp": udpFrame(31), "tcp": tcpFrame(40)} {
		for _, k := range []uint16{1, 0x0100, 0x7fff, 0xfffe} {
			for _, corrupt := range []string{"transport checksum", "header checksum", "payload"} {
				bad := Clone(frame)
				l, _ := layoutOf(bad)
				switch corrupt {
				case "transport checksum":
					binary.BigEndian.PutUint16(l.l4ck, binary.BigEndian.Uint16(l.l4ck)+k)
				case "header checksum":
					binary.BigEndian.PutUint16(l.ipb[10:12], binary.BigEndian.Uint16(l.ipb[10:12])+k)
				case "payload":
					end := l.l4[len(l.l4)-2:]
					binary.BigEndian.PutUint16(end, binary.BigEndian.Uint16(end)^k)
				}
				wantL4, wantHdr := l.l4Residual(), l.headerResidual()
				if wantL4 == 0xffff && wantHdr == 0xffff {
					t.Fatalf("%s %s +%#x: the corruption is not one", name, corrupt, k)
				}
				if err := rewriteOf(0x7f).Apply(bad); err != nil {
					t.Fatal(err)
				}
				if gotL4, gotHdr := l.l4Residual(), l.headerResidual(); gotL4 != wantL4 || gotHdr != wantHdr {
					t.Fatalf("%s %s +%#x: residuals (transport, header) %#04x, %#04x before, %#04x, %#04x after",
						name, corrupt, k, wantL4, wantHdr, gotL4, gotHdr)
				}
			}
		}
	}
}

// TestRewriteZeroResultIsFFFFForUDPOnly finds, for each protocol, the source
// port whose rewritten checksum computes to 0x0000: UDP must transmit it as
// 0xffff (0 means "none"), TCP as it is.
func TestRewriteZeroResultIsFFFFForUDPOnly(t *testing.T) {
	for name, tc := range map[string]struct {
		frame []byte
		want  uint16
	}{"udp": {udpFrame(20), 0xffff}, "tcp": {tcpFrame(20), 0x0000}} {
		found := false
		for port := 1; port <= 0xffff && !found; port++ {
			frame, p := Clone(tc.frame), uint16(port)
			l, _ := layoutOf(frame)
			binary.BigEndian.PutUint16(l.l4[0:2], p)
			l.l4ck[0], l.l4ck[1] = 0, 0
			if ^l.l4Residual() != 0 {
				continue
			}
			found = true
			got := Clone(tc.frame)
			if err := (Rewrite{SrcPort: &p}).Apply(got); err != nil {
				t.Fatal(err)
			}
			gl, _ := layoutOf(got)
			if ck := binary.BigEndian.Uint16(gl.l4ck); ck != tc.want {
				t.Fatalf("%s: port %d sums to 0x0000, written %#04x, want %#04x", name, p, ck, tc.want)
			}
			if !gl.l4Verifies() {
				t.Fatalf("%s: port %d: written checksum does not verify", name, p)
			}
		}
		if !found {
			t.Fatalf("%s: no source port sums to zero", name)
		}
	}
}

// TestRewriteFragments: a non-first fragment has payload where a transport
// header would be — addresses and header checksum change, nothing else. A
// first fragment's transport checksum is patched exactly as the whole
// datagram's would be.
func TestRewriteFragments(t *testing.T) {
	whole := udpFrame(64)
	l4 := EthernetHeaderLen + IPv4HeaderLen
	fragment := func(flagsAndOffset uint16, from, to int) []byte { return fragmentOf(whole, flagsAndOffset, from, to) }
	rw := rewriteOf(0x0f)

	later := fragment(40/8, 40, 72) // offset 40 bytes, last fragment
	before := Clone(later)
	if err := rw.Apply(later); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(later[l4:], before[l4:]) {
		t.Fatalf("non-first fragment's payload rewritten:\n got %x\nwant %x", later[l4:], before[l4:])
	}
	var p Parser
	p.Parse(later)
	if !p.IP.ChecksumOK() || p.IP.Src != rwNewSrc || p.IP.Dst != rwNewDst {
		t.Fatalf("non-first fragment: header checksum ok %v, %v -> %v", p.IP.ChecksumOK(), p.IP.Src, p.IP.Dst)
	}

	first := fragment(1<<13, 0, 40) // MF, offset 0
	if err := rw.Apply(first); err != nil {
		t.Fatal(err)
	}
	if err := rw.Apply(whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first[l4:l4+UDPHeaderLen], whole[l4:l4+UDPHeaderLen]) {
		t.Fatalf("first fragment's UDP header %x, the whole datagram's %x", first[l4:l4+UDPHeaderLen], whole[l4:l4+UDPHeaderLen])
	}
}

// TestChecksumMatchesReference pins the eight-bytes-a-step sum to the
// two-bytes-a-step one at every length and alignment of tail.
func TestChecksumMatchesReference(t *testing.T) {
	buf := make([]byte, 1600)
	for i := range buf {
		buf[i] = byte(i*131 + 17)
	}
	for n := 0; n <= 70; n++ {
		if got, want := Checksum(buf[:n]), ^uint16(refSum(0, buf[:n])); got != want {
			t.Fatalf("len %d: %#04x, want %#04x", n, got, want)
		}
	}
	for _, b := range [][]byte{buf, bytes.Repeat([]byte{0xff}, 1501), make([]byte, 9)} {
		if got, want := Checksum(b), ^uint16(refSum(0, b)); got != want {
			t.Fatalf("len %d: %#04x, want %#04x", len(b), got, want)
		}
	}
}

// FuzzRewriteApply throws arbitrary frames and field subsets at Apply: it
// never panics, changes no byte outside the fields the Rewrite names (and
// the checksums over them), and whenever the IPv4 or transport checksum
// verified on the way in it verifies on the way out and equals the
// from-scratch reference.
func FuzzRewriteApply(f *testing.F) {
	for i, frame := range fuzzSeedFrames(f) {
		f.Add(frame, uint8(0x7f))
		f.Add(frame, uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, frame []byte, mask uint8) {
		rw := rewriteOf(mask)
		in, _ := layoutOf(frame)
		hdrOK := in.ipb != nil && in.headerResidual() == 0xffff
		l4OK := in.ipb != nil && in.l4Verifies()

		got := Clone(frame)
		if err := rw.Apply(got); err != nil {
			return
		}
		want := refApply(rw, frame)
		out, _ := layoutOf(got)
		if in.ipb != nil {
			// Checksum fields are judged below; every other byte must match.
			ref, _ := layoutOf(want)
			copy(ref.ipb[10:12], out.ipb[10:12])
			if out.l4ck != nil {
				copy(ref.l4ck, out.l4ck)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mask %07b: bytes outside the checksums differ\n  in %x\n got %x\nwant %x", mask, frame, got, want)
		}
		want = refApply(rw, frame)
		ref, _ := layoutOf(want)
		if hdrOK {
			if out.headerResidual() != 0xffff {
				t.Fatalf("mask %07b: header checksum verified before, not after: %x", mask, got)
			}
			// 0xffff in is the non-canonical spelling of 0x0000; RFC 1624
			// keeps the spelling, a recompute normalises it.
			if binary.BigEndian.Uint16(in.ipb[10:12]) != 0xffff && !bytes.Equal(out.ipb[10:12], ref.ipb[10:12]) {
				t.Fatalf("mask %07b: header checksum %x, reference %x", mask, out.ipb[10:12], ref.ipb[10:12])
			}
		}
		if l4OK {
			if !out.l4Verifies() {
				t.Fatalf("mask %07b: transport checksum verified before, not after: %x", mask, got)
			}
			if (in.proto == ProtoUDP || binary.BigEndian.Uint16(in.l4ck) != 0xffff) && !bytes.Equal(out.l4ck, ref.l4ck) {
				t.Fatalf("mask %07b: transport checksum %x, reference %x", mask, out.l4ck, ref.l4ck)
			}
		}
	})
}
