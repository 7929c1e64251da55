package counter

import (
	"testing"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

// benchFrames returns one 64-byte UDP frame for each of n flows.
func benchFrames(n int) [][]byte {
	macC, macS := packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2}
	frames := make([][]byte, n)
	for i := range frames {
		src := packet.IP{10, byte(i >> 16), byte(i >> 8), byte(i)}
		frames[i] = packet.BuildUDP(macC, macS, src, packet.IP{10, 255, 0, 1}, uint16(1024+i%50000), 9, make([]byte, 22))
	}
	return frames
}

// benchMonitor times 32-frame ProcessBatch calls, batch i being batches(i),
// on a monitor that has already seen every flow once, as a station's has
// in steady state, and one whole batch. It reports ns/frame beside
// allocs/op.
func benchMonitor(b *testing.B, flows [][]byte, batches func(i int) [][]byte) {
	m := New("acct", 0)
	var out nf.Output
	for _, f := range flows {
		out.Forward = out.Forward[:0]
		m.ProcessBatch(nf.Outbound, [][]byte{f}, &out)
	}
	m.ProcessBatch(nf.Outbound, batches(0), &out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		out.Forward = out.Forward[:0]
		m.ProcessBatch(nf.Outbound, batches(i), &out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32), "ns/frame")
}

// BenchmarkMonitorScatter is fwd_scatter_64B's counter: 100 000 flows come
// round one after another, every frame its own flow.
func BenchmarkMonitorScatter(b *testing.B) {
	flows := benchFrames(100000)
	benchMonitor(b, flows, func(i int) [][]byte {
		at := i * 32 % len(flows)
		return flows[at : at+32]
	})
}

// BenchmarkMonitorTrains is fwd_fast_64B's counter: 256 flows, each batch
// a 32-frame train of one of them.
func BenchmarkMonitorTrains(b *testing.B) {
	flows := benchFrames(256)
	trains := make([][][]byte, len(flows))
	for i, f := range flows {
		for range 32 {
			trains[i] = append(trains[i], f)
		}
	}
	benchMonitor(b, flows, func(i int) [][]byte { return trains[i%len(trains)] })
}
