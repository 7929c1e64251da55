package builtin_test

import (
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
