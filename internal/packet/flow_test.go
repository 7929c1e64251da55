package packet

import "testing"

func parseKey(t *testing.T, frame []byte) FlowKey {
	t.Helper()
	var p Parser
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	return p.FlowKey()
}

func TestFlowKeyCapturesSteeringFields(t *testing.T) {
	src, dst := MAC{2, 0, 0, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 2}
	sip, dip := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	base := BuildUDP(src, dst, sip, dip, 1000, 53, []byte("x"))

	k := parseKey(t, base)
	want := FlowKey{Src: src, Dst: dst, EtherType: EtherTypeIPv4,
		Proto: ProtoUDP, SrcIP: sip, DstIP: dip, SrcPort: 1000, DstPort: 53}
	if k != want {
		t.Fatalf("key = %+v, want %+v", k, want)
	}

	// Same flow, different payload: identical key.
	if k2 := parseKey(t, BuildUDP(src, dst, sip, dip, 1000, 53, []byte("other payload"))); k2 != k {
		t.Fatalf("payload changed the flow key: %+v vs %+v", k2, k)
	}
	// Every steerable field must flip the key.
	variants := [][]byte{
		BuildUDP(MAC{2, 0, 0, 0, 0, 9}, dst, sip, dip, 1000, 53, nil), // src MAC
		BuildUDP(src, MAC{2, 0, 0, 0, 0, 9}, sip, dip, 1000, 53, nil), // dst MAC
		BuildUDP(src, dst, IP{10, 0, 0, 9}, dip, 1000, 53, nil),       // src IP
		BuildUDP(src, dst, sip, IP{10, 0, 0, 9}, 1000, 53, nil),       // dst IP
		BuildUDP(src, dst, sip, dip, 1001, 53, nil),                   // src port
		BuildUDP(src, dst, sip, dip, 1000, 54, nil),                   // dst port
		TagVLAN(base, 3, 42), // VID/tagged
	}
	for i, f := range variants {
		if kv := parseKey(t, f); kv == k {
			t.Fatalf("variant %d did not change the flow key", i)
		}
	}
}

func TestFlowKeyVLANAndNonIP(t *testing.T) {
	src, dst := MAC{2, 0, 0, 0, 0, 1}, MAC{2, 0, 0, 0, 0, 2}
	tagged := TagVLAN(BuildUDP(src, dst, IP{10, 0, 0, 1}, IP{10, 0, 0, 2}, 7, 8, nil), 5, 77)
	k := parseKey(t, tagged)
	if !k.Tagged || k.VID != 77 || k.EtherType != EtherTypeIPv4 {
		t.Fatalf("tagged key = %+v", k)
	}

	arp := BuildARP(ARPRequest, src, IP{10, 0, 0, 1}, MAC{}, IP{10, 0, 0, 2})
	ka := parseKey(t, arp)
	if ka.EtherType != EtherTypeARP || ka.Proto != 0 || ka.SrcPort != 0 {
		t.Fatalf("ARP key leaked transport fields: %+v", ka)
	}

	// ICMP flows: ports stay zero, proto distinguishes them from UDP.
	icmp := BuildICMPEcho(src, dst, IP{10, 0, 0, 1}, IP{10, 0, 0, 2}, ICMPEchoRequest, 7, 1, nil)
	ki := parseKey(t, icmp)
	if ki.Proto != ProtoICMP || ki.SrcPort != 0 || ki.DstPort != 0 {
		t.Fatalf("ICMP key = %+v", ki)
	}
}

func TestFlowKeyHashSpreads(t *testing.T) {
	// Hash must be deterministic and sensitive to single-field changes.
	a := FlowKey{SrcPort: 1000, DstPort: 53, Proto: ProtoUDP}
	if a.Hash() != a.Hash() {
		t.Fatal("hash not deterministic")
	}
	seen := map[uint64]bool{}
	for port := uint16(0); port < 1024; port++ {
		k := a
		k.SrcPort = port
		seen[k.Hash()] = true
	}
	if len(seen) != 1024 {
		t.Fatalf("hash collided on %d of 1024 single-field variants", 1024-len(seen))
	}
}
