package firewall

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
	ipA  = packet.IP{10, 0, 0, 1}
	ipB  = packet.IP{93, 184, 216, 34}
)

func udp(dstPort uint16) []byte {
	return packet.BuildUDP(macA, macB, ipA, ipB, 40000, dstPort, []byte("x"))
}

func tcp(dstPort uint16) []byte {
	return packet.BuildTCP(macA, macB, ipA, ipB, 40000, dstPort, packet.TCPOptions{Flags: packet.TCPSyn}, nil)
}

func passed(out nf.Output) bool { return len(out.Forward) == 1 }

func TestCIDRContains(t *testing.T) {
	cases := []struct {
		cidr string
		ip   packet.IP
		want bool
	}{
		{"10.0.0.0/8", packet.IP{10, 9, 8, 7}, true},
		{"10.0.0.0/8", packet.IP{11, 0, 0, 1}, false},
		{"10.0.0.1", packet.IP{10, 0, 0, 1}, true},
		{"10.0.0.1/32", packet.IP{10, 0, 0, 2}, false},
		{"any", packet.IP{1, 2, 3, 4}, true},
		{"0.0.0.0/0", packet.IP{200, 1, 1, 1}, true},
		{"192.168.4.0/22", packet.IP{192, 168, 7, 255}, true},
		{"192.168.4.0/22", packet.IP{192, 168, 8, 0}, false},
	}
	for _, c := range cases {
		cidr, err := ParseCIDR(c.cidr)
		if err != nil {
			t.Fatalf("ParseCIDR(%q): %v", c.cidr, err)
		}
		if got := cidr.Contains(c.ip); got != c.want {
			t.Errorf("%s contains %s = %v, want %v", c.cidr, c.ip, got, c.want)
		}
	}
}

func TestParseCIDRErrors(t *testing.T) {
	for _, s := range []string{"10.0.0/8", "10.0.0.1/33", "10.0.0.1/-1", "banana", "1.2.3.4/x"} {
		if _, err := ParseCIDR(s); err == nil {
			t.Errorf("ParseCIDR(%q) accepted", s)
		}
	}
}

func TestParseRuleFull(t *testing.T) {
	r, err := ParseRule("drop out tcp 10.0.0.0/8 1000-2000 93.184.216.34/32 80")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if r.Action != Drop || r.Dir != nf.Outbound || r.Proto != packet.ProtoTCP {
		t.Fatalf("rule = %+v", r)
	}
	if r.SPorts != (PortRange{1000, 2000}) || r.DPorts != (PortRange{80, 80}) {
		t.Fatalf("ports = %+v", r)
	}
	if !strings.Contains(r.String(), "drop out tcp") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestParseRuleDefaults(t *testing.T) {
	r, err := ParseRule("accept")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if r.Action != Accept || r.Proto != 0 || r.Src != (CIDR{}) {
		t.Fatalf("rule = %+v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, s := range []string{"", "explode", "drop sideways", "drop out quic", "drop out tcp 1.2.3/8", "drop out tcp any 99999", "drop out tcp any any 1.2.3.4 80-79"} {
		if _, err := ParseRule(s); err == nil {
			t.Errorf("ParseRule(%q) accepted", s)
		}
	}
}

func TestParseRulesList(t *testing.T) {
	rules, err := ParseRules("drop out udp any any any 53; accept any tcp ; ")
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	if _, err := ParseRules("drop; banana"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestFirewallFirstMatchWins(t *testing.T) {
	r1, _ := ParseRule("drop any udp any any any 53")
	r2, _ := ParseRule("accept any udp")
	fw := New("fw", Accept, r1, r2)
	if passed(fw.Process(nf.Outbound, udp(53))) {
		t.Fatal("DNS not dropped by first rule")
	}
	if !passed(fw.Process(nf.Outbound, udp(123))) {
		t.Fatal("NTP dropped")
	}
	stats := fw.NFStats()
	if stats["dropped"] != 1 || stats["accepted"] != 1 || stats["rule0_hits"] != 1 || stats["rule1_hits"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestFirewallDefaultPolicyDrop(t *testing.T) {
	allowDNS, _ := ParseRule("accept any udp any any any 53")
	fw := New("fw", Drop, allowDNS)
	if !passed(fw.Process(nf.Outbound, udp(53))) {
		t.Fatal("allowed flow dropped")
	}
	if passed(fw.Process(nf.Outbound, udp(80))) {
		t.Fatal("default-drop let traffic through")
	}
}

func TestFirewallDirectionality(t *testing.T) {
	r, _ := ParseRule("drop in tcp")
	fw := New("fw", Accept, r)
	if !passed(fw.Process(nf.Outbound, tcp(80))) {
		t.Fatal("outbound dropped by in-rule")
	}
	if passed(fw.Process(nf.Inbound, tcp(80))) {
		t.Fatal("inbound not dropped")
	}
}

func TestFirewallARPAlwaysPasses(t *testing.T) {
	fw := New("fw", Drop)
	arp := packet.BuildARP(packet.ARPRequest, macA, ipA, packet.MAC{}, ipB)
	if !passed(fw.Process(nf.Outbound, arp)) {
		t.Fatal("ARP dropped by default-drop L3 firewall")
	}
}

func TestFirewallICMPMatchesWithoutPorts(t *testing.T) {
	r, _ := ParseRule("drop any icmp")
	fw := New("fw", Accept, r)
	ping := packet.BuildICMPEcho(macA, macB, ipA, ipB, packet.ICMPEchoRequest, 1, 1, nil)
	if passed(fw.Process(nf.Outbound, ping)) {
		t.Fatal("ICMP not dropped")
	}
	// A rule with ports never matches ICMP.
	r2, _ := ParseRule("drop any icmp any 1-100")
	fw2 := New("fw2", Accept, r2)
	if !passed(fw2.Process(nf.Outbound, ping)) {
		t.Fatal("port-rule matched ICMP")
	}
}

func TestFirewallMalformedDropped(t *testing.T) {
	fw := New("fw", Accept)
	if passed(fw.Process(nf.Outbound, []byte{1, 2})) {
		t.Fatal("garbage forwarded")
	}
}

func TestFirewallAppendRule(t *testing.T) {
	fw := New("fw", Accept)
	r, _ := ParseRule("drop any udp")
	fw.AppendRule(r)
	if len(fw.Rules()) != 1 {
		t.Fatal("AppendRule lost the rule")
	}
	if passed(fw.Process(nf.Outbound, udp(1))) {
		t.Fatal("appended rule ignored")
	}
}

func TestFirewallStateRoundTrip(t *testing.T) {
	r, _ := ParseRule("drop any udp any any any 53")
	fw := New("fw", Accept, r)
	fw.Process(nf.Outbound, udp(53))
	fw.Process(nf.Outbound, udp(80))
	data, err := fw.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	fw2 := New("fw", Accept, r)
	if err := fw2.ImportState(data); err != nil {
		t.Fatalf("import: %v", err)
	}
	s1, s2 := fw.NFStats(), fw2.NFStats()
	for k, v := range s1 {
		if s2[k] != v {
			t.Fatalf("stat %s = %d, want %d", k, s2[k], v)
		}
	}
	// Mismatched rule count rejected.
	fw3 := New("fw", Accept)
	if err := fw3.ImportState(data); err == nil {
		t.Fatal("mismatched import accepted")
	}
	if err := fw2.ImportState(data[:len(data)-1]); !errors.Is(err, nf.ErrBadRecord) {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestFactoryRegistration(t *testing.T) {
	fn, err := nf.Default.New("firewall", "fw0", nf.Params{
		"policy": "drop",
		"rules":  "accept any udp any any any 53",
	})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if fn.Kind() != "firewall" || fn.Name() != "fw0" {
		t.Fatalf("fn = %v/%v", fn.Kind(), fn.Name())
	}
	if _, err := nf.Default.New("firewall", "x", nf.Params{"policy": "maybe"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := nf.Default.New("firewall", "x", nf.Params{"rules": "garbage"}); err == nil {
		t.Fatal("bad rules accepted")
	}
}

// Property: for disjoint single-port drop rules, evaluation order does not
// change the verdict.
func TestDisjointRuleOrderIndependenceProperty(t *testing.T) {
	f := func(p1Raw, p2Raw uint16, probe uint16) bool {
		p1 := p1Raw%1000 + 1
		p2 := p2Raw%1000 + 1002 // disjoint from p1
		r1 := Rule{Action: Drop, Dir: anyDir, Proto: packet.ProtoUDP, DPorts: PortRange{p1, p1}}
		r2 := Rule{Action: Drop, Dir: anyDir, Proto: packet.ProtoUDP, DPorts: PortRange{p2, p2}}
		fwA := New("a", Accept, r1, r2)
		fwB := New("b", Accept, r2, r1)
		frame := udp(probe)
		return passed(fwA.Process(nf.Outbound, frame)) == passed(fwB.Process(nf.Outbound, packet.Clone(frame)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CIDR /32 contains exactly its own address.
func TestCIDRSlash32Property(t *testing.T) {
	f := func(a, b, c, d, x, y, z, w byte) bool {
		ip1 := packet.IP{a, b, c, d}
		ip2 := packet.IP{x, y, z, w}
		cidr := CIDR{IP: ip1, Bits: 32}
		return cidr.Contains(ip2) == (ip1 == ip2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPortRangeString(t *testing.T) {
	if (PortRange{}).String() != "any" || (PortRange{5, 5}).String() != "5" || (PortRange{1, 9}).String() != "1-9" {
		t.Fatal("PortRange.String forms")
	}
}
