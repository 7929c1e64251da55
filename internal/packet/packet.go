// Package packet implements from-scratch packet decoding and serialization
// for the GNF dataplane: Ethernet, ARP, IPv4, UDP, TCP, ICMP, plus DNS and
// HTTP-request application codecs.
//
// The design borrows the ideas that make gopacket pleasant in production:
//
//   - each protocol is a plain struct with a Decode method that parses from
//     a byte slice without allocating (slices into the input are retained,
//     so callers that reuse buffers must copy first — see Clone);
//   - a Parser decodes a whole frame into preallocated layer structs, the
//     analogue of gopacket's DecodingLayerParser, for zero-allocation fast
//     paths;
//   - Flow/Endpoint values are small comparable structs usable as map keys,
//     so NFs can keep per-flow state in ordinary Go maps;
//   - serialization appends to caller-provided buffers and fixes up length
//     and checksum fields.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// LayerType identifies a protocol layer produced by the Parser.
type LayerType uint8

// Known layer types.
const (
	LayerNone LayerType = iota
	LayerEthernet
	LayerARP
	LayerIPv4
	LayerUDP
	LayerTCP
	LayerICMP
	LayerPayload
)

// String implements fmt.Stringer.
func (t LayerType) String() string {
	switch t {
	case LayerEthernet:
		return "Ethernet"
	case LayerARP:
		return "ARP"
	case LayerIPv4:
		return "IPv4"
	case LayerUDP:
		return "UDP"
	case LayerTCP:
		return "TCP"
	case LayerICMP:
		return "ICMP"
	case LayerPayload:
		return "Payload"
	default:
		return "None"
	}
}

// Errors shared by the decoders.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadHeader   = errors.New("packet: malformed header")
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IsZero reports whether m is all zeroes.
func (m MAC) IsZero() bool { return m == MAC{} }

// IP is an IPv4 address as a comparable array (usable as a map key).
type IP [4]byte

// IPv4 address constructors and well-known values.
func IPv4Addr(a, b, c, d byte) IP { return IP{a, b, c, d} }

// String renders dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IsZero reports whether ip is 0.0.0.0.
func (ip IP) IsZero() bool { return ip == IP{} }

// Uint32 returns the big-endian integer form.
func (ip IP) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// IPFromUint32 converts back from integer form.
func IPFromUint32(v uint32) IP {
	var ip IP
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// ParseIP parses dotted-quad text; it returns the zero IP and false on
// malformed input.
func ParseIP(s string) (IP, bool) {
	var ip IP
	part, idx, digits := 0, 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if digits == 0 || idx > 3 {
				return IP{}, false
			}
			ip[idx] = byte(part)
			idx++
			part, digits = 0, 0
			continue
		}
		c := s[i]
		if c < '0' || c > '9' {
			return IP{}, false
		}
		part = part*10 + int(c-'0')
		if part > 255 || digits >= 3 {
			return IP{}, false
		}
		digits++
	}
	if idx != 4 {
		return IP{}, false
	}
	return ip, true
}

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// ProtoName returns a human-readable protocol name.
func ProtoName(p uint8) string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto-%d", p)
	}
}

// Endpoint is one side of a transport flow.
type Endpoint struct {
	Addr IP
	Port uint16
}

// String implements fmt.Stringer.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// FiveTuple identifies a transport flow. It is comparable and therefore a
// valid map key; NFs use it for per-flow state.
type FiveTuple struct {
	Proto    uint8
	Src, Dst Endpoint
}

// Reverse returns the tuple with source and destination swapped.
func (f FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Proto: f.Proto, Src: f.Dst, Dst: f.Src}
}

// Canonical returns a direction-independent form (the lexicographically
// smaller endpoint first), so bidirectional flows hash identically —
// gopacket's symmetric FastHash property.
func (f FiveTuple) Canonical() FiveTuple {
	if less(f.Dst, f.Src) {
		return f.Reverse()
	}
	return f
}

func less(a, b Endpoint) bool {
	for i := range a.Addr {
		if a.Addr[i] != b.Addr[i] {
			return a.Addr[i] < b.Addr[i]
		}
	}
	return a.Port < b.Port
}

// String implements fmt.Stringer.
func (f FiveTuple) String() string {
	return fmt.Sprintf("%s %s->%s", ProtoName(f.Proto), f.Src, f.Dst)
}

// Checksum computes the RFC 1071 internet checksum over b.
func Checksum(b []byte) uint16 { return ^fold(sumWords(0, b)) }

// sumWords adds b's big-endian 16-bit words (an odd last byte padded with
// zero) onto acc, eight bytes a step. One's-complement addition is
// associative across word sizes (RFC 1071 §2), so the two 32-bit halves of
// each step go into the 64-bit accumulator unfolded and the carries are
// wrapped once, by fold; 2^31 steps fit before acc can overflow.
func sumWords(acc uint64, b []byte) uint64 {
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		acc += v>>32 + v&0xffffffff
		b = b[8:]
	}
	if len(b) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint64(b[0]) << 8
	}
	return acc
}

// fold wraps the carries of a one's-complement sum into 16 bits. A non-zero
// sum never folds to zero.
func fold(sum uint64) uint16 {
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return uint16(sum)
}

// transportChecksum computes the TCP/UDP checksum: the IPv4 pseudo-header
// (addresses, protocol, segment length) summed ahead of the segment.
func transportChecksum(src, dst IP, proto uint8, segment []byte) uint16 {
	pseudo := uint64(binary.BigEndian.Uint32(src[:])) + uint64(binary.BigEndian.Uint32(dst[:])) +
		uint64(proto) + uint64(len(segment))
	return ^fold(sumWords(pseudo, segment))
}

// Clone returns a copy of b; decoders retain slices into their input, so
// callers that reuse receive buffers clone frames before queuing them.
func Clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
