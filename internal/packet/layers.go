package packet

import (
	"encoding/binary"
)

// EtherType values understood by the dataplane.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeVLAN uint16 = 0x8100 // 802.1Q tag
)

// EthernetHeaderLen is the fixed Ethernet II header size (no 802.1Q).
const EthernetHeaderLen = 14

// VLANTagLen is the size of one 802.1Q tag.
const VLANTagLen = 4

// maxVLANDepth bounds tag nesting (one customer + one provider tag, as
// 802.1ad stacks them).
const maxVLANDepth = 2

// Ethernet is an Ethernet II header, with transparent 802.1Q handling:
// Decode skips up to two VLAN tags, records the outermost VID/PCP, and
// reports the *inner* EtherType — so every upper-layer consumer (parser,
// switch, NFs) sees tagged and untagged frames uniformly.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16 // inner (payload) EtherType
	// Tagged is true when at least one 802.1Q tag was present; VID and
	// PCP are then the outermost tag's fields.
	Tagged  bool
	VID     uint16
	PCP     uint8
	payload []byte
}

// Decode parses an Ethernet frame. The payload slice aliases b.
func (e *Ethernet) Decode(b []byte) error {
	if len(b) < EthernetHeaderLen {
		return ErrTruncated
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	e.Tagged, e.VID, e.PCP = false, 0, 0
	off := 14
	for depth := 0; e.EtherType == EtherTypeVLAN && depth < maxVLANDepth; depth++ {
		if len(b) < off+VLANTagLen {
			return ErrTruncated
		}
		tci := binary.BigEndian.Uint16(b[off : off+2])
		if !e.Tagged {
			e.Tagged = true
			e.PCP = uint8(tci >> 13)
			e.VID = tci & 0x0fff
		}
		e.EtherType = binary.BigEndian.Uint16(b[off+2 : off+4])
		off += VLANTagLen
	}
	e.payload = b[off:]
	return nil
}

// Payload returns the bytes after the header.
func (e *Ethernet) Payload() []byte { return e.payload }

// AppendHeader appends the 14-byte header to dst and returns the extended
// slice. Tagged frames are built with TagVLAN instead.
func (e *Ethernet) AppendHeader(dst []byte) []byte {
	dst = append(dst, e.Dst[:]...)
	dst = append(dst, e.Src[:]...)
	return binary.BigEndian.AppendUint16(dst, e.EtherType)
}

// TagVLAN returns a copy of frame with an 802.1Q tag (pcp, vid) inserted
// as the outermost tag. Only the low 12 bits of vid and 3 bits of pcp are
// used.
func TagVLAN(frame []byte, pcp uint8, vid uint16) []byte {
	if len(frame) < EthernetHeaderLen {
		return append([]byte(nil), frame...)
	}
	out := make([]byte, 0, len(frame)+VLANTagLen)
	out = append(out, frame[:12]...)
	out = binary.BigEndian.AppendUint16(out, EtherTypeVLAN)
	out = binary.BigEndian.AppendUint16(out, uint16(pcp&7)<<13|vid&0x0fff)
	out = append(out, frame[12:]...)
	return out
}

// UntagVLAN returns a copy of frame with its outermost 802.1Q tag removed;
// untagged frames are returned as a plain copy.
func UntagVLAN(frame []byte) []byte {
	if len(frame) < EthernetHeaderLen+VLANTagLen ||
		binary.BigEndian.Uint16(frame[12:14]) != EtherTypeVLAN {
		return append([]byte(nil), frame...)
	}
	out := make([]byte, 0, len(frame)-VLANTagLen)
	out = append(out, frame[:12]...)
	out = append(out, frame[16:]...)
	return out
}

// FrameVID reports the outermost VLAN ID of a frame, if tagged.
func FrameVID(frame []byte) (uint16, bool) {
	if len(frame) < EthernetHeaderLen+VLANTagLen ||
		binary.BigEndian.Uint16(frame[12:14]) != EtherTypeVLAN {
		return 0, false
	}
	return binary.BigEndian.Uint16(frame[14:16]) & 0x0fff, true
}

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPLen is the length of an IPv4-over-Ethernet ARP packet.
const ARPLen = 28

// ARP is an IPv4-over-Ethernet ARP packet.
type ARP struct {
	Op                 uint16
	SenderHW, TargetHW MAC
	SenderIP, TargetIP IP
}

// Decode parses an ARP packet.
func (a *ARP) Decode(b []byte) error {
	if len(b) < ARPLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 || // hardware type Ethernet
		binary.BigEndian.Uint16(b[2:4]) != EtherTypeIPv4 ||
		b[4] != 6 || b[5] != 4 {
		return ErrBadHeader
	}
	a.Op = binary.BigEndian.Uint16(b[6:8])
	copy(a.SenderHW[:], b[8:14])
	copy(a.SenderIP[:], b[14:18])
	copy(a.TargetHW[:], b[18:24])
	copy(a.TargetIP[:], b[24:28])
	return nil
}

// Append serializes the ARP packet onto dst.
func (a *ARP) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, 1)
	dst = binary.BigEndian.AppendUint16(dst, EtherTypeIPv4)
	dst = append(dst, 6, 4)
	dst = binary.BigEndian.AppendUint16(dst, a.Op)
	dst = append(dst, a.SenderHW[:]...)
	dst = append(dst, a.SenderIP[:]...)
	dst = append(dst, a.TargetHW[:]...)
	return append(dst, a.TargetIP[:]...)
}

// IPv4HeaderLen is the size of an option-less IPv4 header; the dataplane
// never emits options and tolerates them on decode.
const IPv4HeaderLen = 20

// ipMoreFragments is the MF bit of IPv4.Flags: more fragments follow.
const ipMoreFragments = 1

// IPv4 is an IPv4 header.
type IPv4 struct {
	TOS        uint8
	TotalLen   uint16
	ID         uint16
	Flags      uint8 // 3 bits
	FragOffset uint16
	TTL        uint8
	Proto      uint8
	Checksum   uint16
	Src, Dst   IP
	header     []byte
	payload    []byte
}

// Decode parses an IPv4 header. It does not verify the header checksum:
// no verdict depends on it, and ChecksumOK sums the header for a caller
// that asks.
func (ip *IPv4) Decode(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return ErrTruncated
	}
	if v := b[0] >> 4; v != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return ErrBadHeader
	}
	ip.header = b[:ihl]
	ip.TOS = b[1]
	ip.TotalLen = binary.BigEndian.Uint16(b[2:4])
	if int(ip.TotalLen) < ihl || int(ip.TotalLen) > len(b) {
		return ErrTruncated
	}
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1fff
	ip.TTL = b[8]
	ip.Proto = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(ip.Src[:], b[12:16])
	copy(ip.Dst[:], b[16:20])
	ip.payload = b[ihl:ip.TotalLen]
	return nil
}

// ChecksumOK reports whether the decoded header's checksum verifies, summed
// now over the header's bytes as they are: a rewrite of the frame since
// Decode shows.
func (ip *IPv4) ChecksumOK() bool { return len(ip.header) > 0 && Checksum(ip.header) == 0 }

// HeaderLen returns the decoded header length in bytes.
func (ip *IPv4) HeaderLen() int {
	if len(ip.header) == 0 {
		return IPv4HeaderLen
	}
	return len(ip.header)
}

// Payload returns the L4 bytes (TotalLen-bounded).
func (ip *IPv4) Payload() []byte { return ip.payload }

// AppendHeader serializes a 20-byte header for a payload of payloadLen
// bytes, computing TotalLen and Checksum. Flags/FragOffset are honoured.
func (ip *IPv4) AppendHeader(dst []byte, payloadLen int) []byte {
	total := IPv4HeaderLen + payloadLen
	start := len(dst)
	dst = append(dst, 0x45, ip.TOS)
	dst = binary.BigEndian.AppendUint16(dst, uint16(total))
	dst = binary.BigEndian.AppendUint16(dst, ip.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(ip.Flags)<<13|ip.FragOffset&0x1fff)
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	dst = append(dst, ttl, ip.Proto, 0, 0) // checksum placeholder
	dst = append(dst, ip.Src[:]...)
	dst = append(dst, ip.Dst[:]...)
	ck := Checksum(dst[start : start+IPv4HeaderLen])
	binary.BigEndian.PutUint16(dst[start+10:], ck)
	return dst
}

// UDPHeaderLen is the UDP header size.
const UDPHeaderLen = 8

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
	payload          []byte
}

// Decode parses a UDP header.
func (u *UDP) Decode(b []byte) error { return u.decode(b, false) }

// decode parses a UDP header. The first fragment of a datagram (more set:
// the IP header's MF bit) holds a header whose Length counts bytes in later
// fragments, so there a Length past b is accepted and the payload runs to
// the end of b.
func (u *UDP) decode(b []byte, more bool) error {
	if len(b) < UDPHeaderLen {
		return ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	if int(u.Length) < UDPHeaderLen || (int(u.Length) > len(b) && !more) {
		return ErrTruncated
	}
	u.payload = b[UDPHeaderLen:min(int(u.Length), len(b))]
	return nil
}

// Payload returns the datagram body.
func (u *UDP) Payload() []byte { return u.payload }

// TCPHeaderLen is the option-less TCP header size.
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	payload          []byte
}

// Decode parses a TCP header.
func (t *TCP) Decode(b []byte) error {
	if len(b) < TCPHeaderLen {
		return ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.DataOffset = b[12] >> 4
	hl := int(t.DataOffset) * 4
	if hl < TCPHeaderLen || hl > len(b) {
		return ErrBadHeader
	}
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	t.payload = b[hl:]
	return nil
}

// Payload returns the segment body.
func (t *TCP) Payload() []byte { return t.payload }

// HasFlag reports whether all bits in f are set.
func (t *TCP) HasFlag(f uint8) bool { return t.Flags&f == f }

// ICMP message types used by the dataplane.
const (
	ICMPEchoReply   uint8 = 0
	ICMPEchoRequest uint8 = 8
)

// ICMPHeaderLen is the echo header size.
const ICMPHeaderLen = 8

// ICMP is an ICMP echo header.
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
	ID, Seq    uint16
	payload    []byte
}

// Decode parses an ICMP message.
func (ic *ICMP) Decode(b []byte) error {
	if len(b) < ICMPHeaderLen {
		return ErrTruncated
	}
	ic.Type = b[0]
	ic.Code = b[1]
	ic.Checksum = binary.BigEndian.Uint16(b[2:4])
	ic.ID = binary.BigEndian.Uint16(b[4:6])
	ic.Seq = binary.BigEndian.Uint16(b[6:8])
	ic.payload = b[8:]
	return nil
}

// Payload returns the echo body.
func (ic *ICMP) Payload() []byte { return ic.payload }

// Append serializes the ICMP message with payload, computing the checksum.
func (ic *ICMP) Append(dst []byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, ic.Type, ic.Code, 0, 0)
	dst = binary.BigEndian.AppendUint16(dst, ic.ID)
	dst = binary.BigEndian.AppendUint16(dst, ic.Seq)
	dst = append(dst, payload...)
	ck := Checksum(dst[start:])
	binary.BigEndian.PutUint16(dst[start+2:], ck)
	return dst
}
