package packet

import "testing"

func TestRunFollowsOneFlowAndEndsOnTheFirstStranger(t *testing.T) {
	var run Run
	first := udpFrame(64)
	if run.Continues(first) {
		t.Fatal("the zero Run continues")
	}
	if !run.Start(first) {
		t.Fatal("an untagged IPv4/UDP frame does not start a run")
	}
	next := udpFrame(64)
	next[len(next)-1] ^= 0xff // another payload (and UDP checksum), same flow
	if !run.Continues(next) {
		t.Fatal("same flow, same length: not a continuation")
	}
	// One byte short of its TotalLength: the prefix matches, the parse would not.
	if run.Continues(next[:len(next)-1]) {
		t.Fatal("a truncated frame continues the run")
	}
	if run.Continues(next) {
		t.Fatal("the run outlived the frame that broke it")
	}

	run.Start(first)
	for name, other := range map[string][]byte{
		"another length":          udpFrame(65),
		"another port":            BuildUDP(rwSrcMAC, rwDstMAC, rwSrcIP, rwDstIP, 40001, 53, payloadOf(64)),
		"shorter than the prefix": first[:RunPrefixLen-1],
	} {
		if run.Continues(other) {
			t.Fatalf("%s continues the run", name)
		}
		run.Start(first)
	}
	for name, f := range map[string][]byte{
		"tcp":        tcpFrame(64),
		"vlan":       TagVLAN(first, 1, 7),
		"ip options": withIPOptions(first),
		"arp":        BuildARP(ARPRequest, rwSrcMAC, rwSrcIP, MAC{}, rwDstIP),
	} {
		if run.Start(f) || run.Continues(f) {
			t.Fatalf("%s starts a run", name)
		}
	}
}
