package packet

import "encoding/binary"

// This file contains frame builders: they assemble full Ethernet frames,
// computing every length and checksum field, so tests, traffic generators
// and NFs never hand-craft byte offsets.

// BuildUDP assembles Ethernet+IPv4+UDP+payload. Zero TTL defaults to 64.
func BuildUDP(srcMAC, dstMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16, payload []byte) []byte {
	udpLen := UDPHeaderLen + len(payload)
	frame := make([]byte, 0, EthernetHeaderLen+IPv4HeaderLen+udpLen)
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	frame = eth.AppendHeader(frame)
	ip := IPv4{Proto: ProtoUDP, Src: srcIP, Dst: dstIP}
	frame = ip.AppendHeader(frame, udpLen)
	l4 := len(frame)
	frame = binary.BigEndian.AppendUint16(frame, srcPort)
	frame = binary.BigEndian.AppendUint16(frame, dstPort)
	frame = binary.BigEndian.AppendUint16(frame, uint16(udpLen))
	frame = append(frame, 0, 0) // checksum placeholder
	frame = append(frame, payload...)
	ck := transportChecksum(srcIP, dstIP, ProtoUDP, frame[l4:])
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(frame[l4+6:], ck)
	return frame
}

// TCPOptions carries the mutable TCP header fields for BuildTCP.
type TCPOptions struct {
	Seq, Ack uint32
	Flags    uint8
	Window   uint16
}

// BuildTCP assembles Ethernet+IPv4+TCP+payload.
func BuildTCP(srcMAC, dstMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16, opt TCPOptions, payload []byte) []byte {
	tcpLen := TCPHeaderLen + len(payload)
	frame := make([]byte, 0, EthernetHeaderLen+IPv4HeaderLen+tcpLen)
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	frame = eth.AppendHeader(frame)
	ip := IPv4{Proto: ProtoTCP, Src: srcIP, Dst: dstIP}
	frame = ip.AppendHeader(frame, tcpLen)
	l4 := len(frame)
	frame = binary.BigEndian.AppendUint16(frame, srcPort)
	frame = binary.BigEndian.AppendUint16(frame, dstPort)
	frame = binary.BigEndian.AppendUint32(frame, opt.Seq)
	frame = binary.BigEndian.AppendUint32(frame, opt.Ack)
	win := opt.Window
	if win == 0 {
		win = 65535
	}
	frame = append(frame, 5<<4, opt.Flags)
	frame = binary.BigEndian.AppendUint16(frame, win)
	frame = append(frame, 0, 0, 0, 0) // checksum + urgent
	frame = append(frame, payload...)
	ck := transportChecksum(srcIP, dstIP, ProtoTCP, frame[l4:])
	binary.BigEndian.PutUint16(frame[l4+16:], ck)
	return frame
}

// BuildICMPEcho assembles an ICMP echo request/reply frame.
func BuildICMPEcho(srcMAC, dstMAC MAC, srcIP, dstIP IP, typ uint8, id, seq uint16, payload []byte) []byte {
	icmpLen := ICMPHeaderLen + len(payload)
	frame := make([]byte, 0, EthernetHeaderLen+IPv4HeaderLen+icmpLen)
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	frame = eth.AppendHeader(frame)
	ip := IPv4{Proto: ProtoICMP, Src: srcIP, Dst: dstIP}
	frame = ip.AppendHeader(frame, icmpLen)
	ic := ICMP{Type: typ, ID: id, Seq: seq}
	return ic.Append(frame, payload)
}

// BuildARP assembles an ARP request or reply frame.
func BuildARP(op uint16, senderHW MAC, senderIP IP, targetHW MAC, targetIP IP) []byte {
	dst := targetHW
	if op == ARPRequest {
		dst = BroadcastMAC
	}
	frame := make([]byte, 0, EthernetHeaderLen+ARPLen)
	eth := Ethernet{Dst: dst, Src: senderHW, EtherType: EtherTypeARP}
	frame = eth.AppendHeader(frame)
	arp := ARP{Op: op, SenderHW: senderHW, SenderIP: senderIP, TargetHW: targetHW, TargetIP: targetIP}
	return arp.Append(frame)
}

// Rewrite mutates address/port fields of a decoded frame in place and fixes
// the affected checksums. It is the primitive NAT and load-balancer NFs use.
// Frames must contain Ethernet+IPv4; non-IPv4 frames return ErrBadHeader.
//
// Checksums are updated incrementally (RFC 1624 eqn. 3: HC' = ~(~HC +
// Σ(~m + m')) over exactly the 16-bit words overwritten), so the cost is
// O(fields changed) whatever the frame length, and a checksum that was
// wrong on the way in is wrong by the same amount on the way out — the
// receiver, not the NAT, decides what to do with a corrupt segment. Address
// words feed the IPv4 header checksum and, through the pseudo-header, the
// transport checksum; ports the transport checksum only; TTL the header
// only. A UDP checksum of 0 ("not computed", RFC 768) stays 0, and a
// computed one that comes out 0 is written 0xffff.
//
// A non-first IP fragment carries no transport header: its addresses and
// header checksum are rewritten and its payload is left alone. A first
// fragment does carry one, and the incremental update is the only correct
// way to fix it — a re-sum over the part of the datagram in this frame
// never was.
type Rewrite struct {
	SrcIP, DstIP     *IP     // nil = leave unchanged
	SrcPort, DstPort *uint16 // nil = leave unchanged; ignored for ICMP
	SrcMAC, DstMAC   *MAC
	DecrementTTL     bool
}

// Apply performs the rewrite on frame.
func (rw Rewrite) Apply(frame []byte) error {
	if len(frame) < EthernetHeaderLen {
		return ErrTruncated
	}
	if rw.SrcMAC != nil {
		copy(frame[6:12], rw.SrcMAC[:])
	}
	if rw.DstMAC != nil {
		copy(frame[0:6], rw.DstMAC[:])
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		if rw.SrcIP != nil || rw.DstIP != nil || rw.SrcPort != nil || rw.DstPort != nil {
			return ErrBadHeader
		}
		return nil
	}
	ipb := frame[EthernetHeaderLen:]
	if len(ipb) < IPv4HeaderLen {
		return ErrTruncated
	}
	ihl := int(ipb[0]&0x0f) * 4
	total := int(binary.BigEndian.Uint16(ipb[2:4]))
	if ihl < IPv4HeaderLen || total < ihl || total > len(ipb) {
		return ErrBadHeader
	}
	// addrs and header accumulate Σ(~m + m') over the words overwritten.
	var addrs, header uint32
	if rw.SrcIP != nil {
		addrs += put16(ipb[12:14], binary.BigEndian.Uint16(rw.SrcIP[0:2])) +
			put16(ipb[14:16], binary.BigEndian.Uint16(rw.SrcIP[2:4]))
	}
	if rw.DstIP != nil {
		addrs += put16(ipb[16:18], binary.BigEndian.Uint16(rw.DstIP[0:2])) +
			put16(ipb[18:20], binary.BigEndian.Uint16(rw.DstIP[2:4]))
	}
	if rw.DecrementTTL && ipb[8] > 0 {
		header = put16(ipb[8:10], binary.BigEndian.Uint16(ipb[8:10])-0x0100)
	}
	patchChecksum(ipb[10:12], addrs+header)

	if binary.BigEndian.Uint16(ipb[6:8])&0x1fff != 0 {
		return nil // non-first fragment: no transport header in this frame
	}
	l4 := ipb[ihl:total]
	var ck []byte
	switch ipb[9] {
	case ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return ErrTruncated
		}
		ck = l4[6:8]
	case ProtoTCP:
		if len(l4) < TCPHeaderLen {
			return ErrTruncated
		}
		ck = l4[16:18]
	default:
		return nil
	}
	ports := addrs
	if rw.SrcPort != nil {
		ports += put16(l4[0:2], *rw.SrcPort)
	}
	if rw.DstPort != nil {
		ports += put16(l4[2:4], *rw.DstPort)
	}
	udp := ipb[9] == ProtoUDP
	if udp && binary.BigEndian.Uint16(ck) == 0 {
		return nil
	}
	if patchChecksum(ck, ports) == 0 && udp {
		binary.BigEndian.PutUint16(ck, 0xffff)
	}
	return nil
}

// put16 overwrites the 16-bit word at b with v and returns ~m + m', the
// word's term in RFC 1624 eqn. 3.
func put16(b []byte, v uint16) uint32 {
	old := binary.BigEndian.Uint16(b)
	binary.BigEndian.PutUint16(b, v)
	return uint32(^old) + uint32(v)
}

// patchChecksum applies RFC 1624 eqn. 3 to the checksum field at b, HC' =
// ~(~HC + delta), and returns HC'. A delta of 0 leaves the field as it was.
func patchChecksum(b []byte, delta uint32) uint16 {
	ck := ^fold(uint64(^binary.BigEndian.Uint16(b)) + uint64(delta))
	binary.BigEndian.PutUint16(b, ck)
	return ck
}

// ReplaceUDPPayload returns a new frame identical to the input but carrying
// a different UDP payload, with lengths and checksums fixed. The DNS load
// balancer uses it to rewrite answers.
func ReplaceUDPPayload(frame, payload []byte) ([]byte, error) {
	var eth Ethernet
	if err := eth.Decode(frame); err != nil {
		return nil, err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return nil, ErrBadHeader
	}
	var ip IPv4
	if err := ip.Decode(eth.Payload()); err != nil {
		return nil, err
	}
	if ip.Proto != ProtoUDP {
		return nil, ErrBadHeader
	}
	var udp UDP
	if err := udp.Decode(ip.Payload()); err != nil {
		return nil, err
	}
	return BuildUDP(eth.Src, eth.Dst, ip.Src, ip.Dst, udp.SrcPort, udp.DstPort, payload), nil
}
