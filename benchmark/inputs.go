package main

import (
	"fmt"
	"math/rand"
	"strings"

	"gnf/internal/agent"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// Everything a workload feeds the program is derived from -seed here and
// nowhere else: the same seed gives the same flows, payload bytes, NAT
// seed flows and storm order; the program sees only the generated inputs.

var (
	phoneMAC  = packet.MAC{2, 0, 0, 0, 0, 0x10}
	phoneIP   = packet.IP{10, 0, 0, 10}
	serverMAC = packet.MAC{2, 0, 0, 0, 0, 0x99}
	serverIP  = packet.IP{10, 99, 0, 1}
	natIP     = packet.IP{192, 168, 90, 1}
)

// flowTuple is the part of a flow's five-tuple the seed varies.
type flowTuple struct{ src, dst uint16 }

// genFlows returns n distinct (source port, destination port) pairs: a
// seeded permutation of a seeded window of the port grid.
func genFlows(rng *rand.Rand, n int) []flowTuple {
	srcBase := 1024 + rng.Intn(4096)
	dstBase := 5000 + rng.Intn(1000)
	flows := make([]flowTuple, n)
	for i, p := range rng.Perm(n) {
		flows[i] = flowTuple{src: uint16(srcBase + p%60000), dst: uint16(dstBase + p/60000)}
	}
	return flows
}

// genFrameTemplate builds the frameLen-byte UDP frame every generated
// frame is stamped from: fixed addressing, seeded filler after the
// 16-byte load header, UDP checksum zeroed ("not computed", legal for
// UDP/IPv4) because ports and header are rewritten per frame.
func genFrameTemplate(rng *rand.Rand, frameLen int) []byte {
	const headers = 14 + 20 + 8
	payload := make([]byte, frameLen-headers)
	rng.Read(payload[loadHeaderLen:])
	tmpl := packet.BuildUDP(phoneMAC, serverMAC, phoneIP, serverIP, 0, 0, payload)
	tmpl[40], tmpl[41] = 0, 0
	return tmpl
}

// genNATSeedPorts returns n distinct client source ports whose flows are
// pushed through the roam chain before roaming, so the NAT carries n
// mappings of state.
func genNATSeedPorts(rng *rand.Rand, n int) []uint16 {
	ports := make([]uint16, n)
	for i, p := range rng.Perm(60000)[:n] {
		ports[i] = uint16(2001 + p)
	}
	return ports
}

// genStormOrder returns the order in which a storm's clients hand off.
func genStormOrder(rng *rand.Rand, clients int) []int { return rng.Perm(clients) }

// Chains. Parameters are fixed: the seed varies traffic, not configuration.

func counterChain() []agent.NFSpec {
	return []agent.NFSpec{{Kind: "counter", Name: "acct"}}
}

// firewall128 is an accept-policy firewall with 128 rules none of the
// benchmark's UDP traffic matches, so every frame pays the full scan.
func firewall128() agent.NFSpec {
	rules := make([]string, 128)
	for i := range rules {
		rules[i] = fmt.Sprintf("drop out tcp any any any %d", 10000+i)
	}
	return agent.NFSpec{Kind: "firewall", Name: "fw",
		Params: nf.Params{"policy": "accept", "rules": strings.Join(rules, "; ")}}
}

func natSpec() agent.NFSpec {
	return agent.NFSpec{Kind: "nat", Name: "xlate",
		Params: nf.Params{"nat_ip": natIP.String(), "ports": "20000-60000"}}
}

func chain5() []agent.NFSpec {
	return []agent.NFSpec{
		firewall128(),
		{Kind: "httpfilter", Name: "web", Params: nf.Params{"block_hosts": "ads.example"}},
		// "Unlimited": three orders of magnitude above what the path carries.
		{Kind: "ratelimit", Name: "rl", Params: nf.Params{"rate_bps": "1000000000000", "burst_bytes": "10000000000"}},
		natSpec(),
		{Kind: "counter", Name: "acct"},
	}
}

func roamChain() []agent.NFSpec {
	return []agent.NFSpec{
		{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
		natSpec(),
		{Kind: "counter", Name: "acct"},
	}
}
