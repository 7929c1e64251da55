package builtin_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"gnf/internal/nf"
	"gnf/internal/nf/firewall"
	"gnf/internal/nf/nat"
	"gnf/internal/packet"
)

// TestFirstUDPFragmentIsJudgedAndTranslated: a UDP datagram's first
// fragment carries the header, whose Length counts bytes in the later
// fragments. A firewall judges it by its ports like the whole datagram, and
// the NAT rewrites its source address and port with the checksum patched
// for the whole datagram.
func TestFirstUDPFragmentIsJudgedAndTranslated(t *testing.T) {
	const l4, held = packet.EthernetHeaderLen + packet.IPv4HeaderLen, 40
	whole := packet.BuildUDP(clientMAC(1), eqServer, clientIP(1), eqServerIP, 30001, 53, make([]byte, 64))
	first := func() []byte {
		f := packet.Clone(whole[:l4+held])
		ipb := f[packet.EthernetHeaderLen:]
		binary.BigEndian.PutUint16(ipb[2:], packet.IPv4HeaderLen+held)
		binary.BigEndian.PutUint16(ipb[6:], 1<<13) // MF, offset 0
		binary.BigEndian.PutUint16(ipb[10:], 0)
		binary.BigEndian.PutUint16(ipb[10:], packet.Checksum(ipb[:packet.IPv4HeaderLen]))
		return f
	}

	if out := firewall.New("fw", firewall.Accept).Process(nf.Outbound, first()); len(out.Forward) != 1 {
		t.Fatal("an accept-all firewall dropped the first fragment")
	}
	fw := firewall.New("fw", firewall.Accept)
	rule, err := firewall.ParseRule("drop out udp any any any 53")
	if err != nil {
		t.Fatal(err)
	}
	fw.AppendRule(rule)
	if out := fw.Process(nf.Outbound, first()); len(out.Forward) != 0 || fw.NFStats()["rule0_hits"] != 1 {
		t.Fatalf("a port-53 drop rule: forwarded %d, rule hits %d", len(out.Forward), fw.NFStats()["rule0_hits"])
	}

	n, err := nat.New("xlate", eqNATIP, 20000, 20100)
	if err != nil {
		t.Fatal(err)
	}
	out := n.Process(nf.Outbound, first())
	if len(out.Forward) != 1 {
		t.Fatalf("the NAT forwarded %d frames", len(out.Forward))
	}
	var p packet.Parser
	if err := p.Parse(out.Forward[0]); err != nil || p.IP.Src != eqNATIP || p.UDP.SrcPort != 20000 || !p.IP.ChecksumOK() {
		t.Fatalf("translated fragment: %v, from %v:%d, header checksum ok %v", err, p.IP.Src, p.UDP.SrcPort, p.IP.ChecksumOK())
	}
	// Reassembled with the bytes of the later fragments, the translated
	// datagram's UDP checksum verifies against the NAT's address.
	datagram := append(packet.Clone(out.Forward[0][l4:]), whole[l4+held:]...)
	pseudo := append(append(eqNATIP[:], eqServerIP[:]...), 0, packet.ProtoUDP, 0, 0)
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(datagram)))
	if ck := packet.Checksum(append(pseudo, datagram...)); ck != 0 {
		t.Fatalf("reassembled datagram's UDP checksum is off by %#04x", ck)
	}
}

// TestMiddleAndLastUDPFragmentsPassUnjudgedAndUntranslated: a non-first
// fragment carries payload where the UDP header would be, so it has no
// ports. A firewall rule that names a port does not match it, and the
// accept policy forwards it. The NAT keeps no fragment state, so it cannot
// tell which mapping the fragment belongs to and forwards it untranslated:
// the datagram leaves with its first fragment from the NAT's address and
// the rest from the client's (DESIGN.md, "Not in this model yet").
func TestMiddleAndLastUDPFragmentsPassUnjudgedAndUntranslated(t *testing.T) {
	const l4 = packet.EthernetHeaderLen + packet.IPv4HeaderLen
	whole := packet.BuildUDP(clientMAC(1), eqServer, clientIP(1), eqServerIP, 30001, 53, make([]byte, 64))
	// fragment carries bytes [from, to) of whole's IP payload (UDP header
	// included): offset from/8, MF set unless the bytes run to the end.
	fragment := func(from, to int) []byte {
		f := append(packet.Clone(whole[:l4]), whole[l4+from:l4+to]...)
		ipb := f[packet.EthernetHeaderLen:]
		binary.BigEndian.PutUint16(ipb[2:], uint16(packet.IPv4HeaderLen+to-from))
		flags := uint16(from / 8)
		if l4+to < len(whole) {
			flags |= 1 << 13 // MF
		}
		binary.BigEndian.PutUint16(ipb[6:], flags)
		binary.BigEndian.PutUint16(ipb[10:], 0)
		binary.BigEndian.PutUint16(ipb[10:], packet.Checksum(ipb[:packet.IPv4HeaderLen]))
		return f
	}
	rest := len(whole) - l4
	for _, tc := range []struct {
		name     string
		from, to int
	}{{"middle", 40, 56}, {"last", 56, rest}} {
		t.Run(tc.name, func(t *testing.T) {
			var p packet.Parser
			if err := p.Parse(fragment(tc.from, tc.to)); err != nil || p.Has(packet.LayerUDP) || p.IP.FragOffset == 0 {
				t.Fatalf("fragment parses as %v, UDP %v, offset %d", err, p.Has(packet.LayerUDP), p.IP.FragOffset)
			}

			fw := firewall.New("fw", firewall.Accept)
			rule, err := firewall.ParseRule("drop out udp any any any 53")
			if err != nil {
				t.Fatal(err)
			}
			fw.AppendRule(rule)
			if out := fw.Process(nf.Outbound, fragment(tc.from, tc.to)); len(out.Forward) != 1 || fw.NFStats()["rule0_hits"] != 0 {
				t.Fatalf("a port-53 drop rule: forwarded %d, rule hits %d", len(out.Forward), fw.NFStats()["rule0_hits"])
			}

			n, err := nat.New("xlate", eqNATIP, 20000, 20100)
			if err != nil {
				t.Fatal(err)
			}
			out := n.Process(nf.Outbound, fragment(tc.from, tc.to))
			if len(out.Forward) != 1 || !bytes.Equal(out.Forward[0], fragment(tc.from, tc.to)) {
				t.Fatalf("the NAT forwarded %d frames, want the fragment untouched", len(out.Forward))
			}
			if st := n.NFStats(); st["translated"] != 0 || st["mappings"] != 0 {
				t.Fatalf("the NAT translated a non-first fragment: %v", st)
			}
		})
	}
}
