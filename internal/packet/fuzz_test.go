package packet

import (
	"bytes"
	"os"
	"testing"

	"gnf/internal/pcap"
)

// fuzzSeedFrames is the corpus both frame fuzzers start from: the checked-in
// pcap fixture (testdata/fuzz_frames.pcap, written with the repo's own pcap
// writer) plus builder output for each frame family.
func fuzzSeedFrames(f *testing.F) [][]byte {
	srcMAC := MAC{2, 0, 0, 0, 0, 1}
	dstMAC := MAC{2, 0, 0, 0, 0, 2}
	srcIP := IP{10, 0, 0, 1}
	dstIP := IP{10, 0, 0, 2}
	frames := [][]byte{
		BuildUDP(srcMAC, dstMAC, srcIP, dstIP, 4000, 53, []byte("payload")),
		BuildTCP(srcMAC, dstMAC, srcIP, dstIP, 40000, 80, TCPOptions{Seq: 1, Flags: TCPSyn}, nil),
		BuildICMPEcho(srcMAC, dstMAC, srcIP, dstIP, 8, 1, 1, []byte("ping")),
		BuildARP(1, srcMAC, srcIP, MAC{}, dstIP),
		TagVLAN(BuildUDP(srcMAC, dstMAC, srcIP, dstIP, 1, 2, nil), 7, 100),
		// A datagram's last fragment: payload where a UDP header would be.
		fragmentOf(BuildUDP(srcMAC, dstMAC, srcIP, dstIP, 4000, 53, make([]byte, 32)), 16/8, 16, 40),
	}
	if data, err := os.ReadFile("testdata/fuzz_frames.pcap"); err == nil {
		r, err := pcap.NewReader(bytes.NewReader(data))
		if err != nil {
			f.Fatalf("corrupt pcap fixture: %v", err)
		}
		pkts, err := r.ReadAll()
		if err != nil {
			f.Fatalf("reading pcap fixture: %v", err)
		}
		for _, p := range pkts {
			frames = append(frames, p.Data)
		}
		if len(pkts) == 0 {
			f.Fatal("empty pcap fixture")
		}
	}
	return frames
}

// FuzzParse throws arbitrary bytes at the frame parser and the code that
// consumes its results on the switch fast path: FlowKey extraction and
// hashing, five-tuple extraction, transport payload slicing, and header
// rewriting.
func FuzzParse(f *testing.F) {
	srcMAC := MAC{2, 0, 0, 0, 0, 1}
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		var p Parser
		if err := p.Parse(frame); err != nil {
			// Rejected frames must still be safe to interrogate.
			_ = p.FlowKey()
			_, _ = p.FiveTuple()
			return
		}
		key := p.FlowKey()
		_ = key.Hash()
		if ft, ok := p.FiveTuple(); ok {
			// A five-tuple implies a parsed IPv4 header whose addresses
			// match the flow key.
			if !p.Has(LayerIPv4) {
				t.Fatalf("five-tuple %v without an IPv4 layer", ft)
			}
			if ft.Src.Addr != key.SrcIP || ft.Dst.Addr != key.DstIP {
				t.Fatalf("five-tuple %v disagrees with flow key %+v", ft, key)
			}
		}
		if p.Has(LayerIPv4) && p.IP.FragOffset != 0 && (key.SrcPort != 0 || key.DstPort != 0 || p.TransportPayload() != nil) {
			t.Fatalf("non-first fragment decoded as a transport header: %+v", key)
		}
		if pl := p.TransportPayload(); len(pl) > len(frame) {
			t.Fatalf("transport payload longer than frame: %d > %d", len(pl), len(frame))
		}
		// Rewriting a parseable frame must not panic, and the result must
		// still be parseable (or cleanly rejected) afterwards.
		ip := IP{192, 0, 2, 1}
		port := uint16(3784)
		cp := Clone(frame)
		_ = Rewrite{SrcIP: &ip, DstIP: &ip, SrcPort: &port, DstPort: &port, DecrementTTL: true, SrcMAC: &srcMAC}.Apply(cp)
		var p2 Parser
		_ = p2.Parse(cp)
	})
}
