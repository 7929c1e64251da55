package netem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/packet"
)

func BenchmarkVethDelivery(b *testing.B) {
	a, peer := NewVethPair("a", "b")
	defer a.Close()
	var delivered atomic.Uint64
	peer.SetReceiver(func([]byte) { delivered.Add(1) })
	frame := make([]byte, 512)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a.Send(frame) != nil {
		}
	}
	for delivered.Load() < uint64(b.N) {
		time.Sleep(time.Millisecond)
	}
}

func BenchmarkSwitchUnicastForward(b *testing.B) {
	sw := NewSwitch("bench")
	h1, p1 := NewVethPair("h1", "p1")
	h2, p2 := NewVethPair("h2", "p2")
	defer h1.Close()
	defer h2.Close()
	sw.Attach(1, p1)
	sw.Attach(2, p2)
	var got atomic.Uint64
	h2.SetReceiver(func([]byte) { got.Add(1) })

	// Teach the FDB both MACs.
	teach := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 2}, packet.MAC{2, 0, 0, 0, 0, 1},
		packet.IP{10, 0, 0, 2}, packet.IP{10, 0, 0, 1}, 1, 1, nil)
	h2.Send(teach)
	frame := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}, 1000, 2000, make([]byte, 470))
	h1.Send(frame)
	deadline := time.After(time.Second)
	for got.Load() == 0 {
		select {
		case <-deadline:
			b.Fatal("warmup frame lost")
		case <-time.After(time.Millisecond):
		}
	}
	got.Store(0)

	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	windowDeadline := time.Now().Add(30 * time.Second)
	for i := 0; i < b.N; i++ {
		// Window the in-flight count below the veth queue depth: Send
		// tail-drops silently under overload, which would lose frames
		// and hang the delivery wait below.
		for uint64(i)-got.Load() >= defaultQueueLen/2 {
			if time.Now().After(windowDeadline) {
				b.Fatalf("in-flight window stalled: delivered %d of %d sent", got.Load(), i)
			}
			time.Sleep(50 * time.Microsecond)
		}
		for h1.Send(frame) != nil {
		}
	}
	deadline = time.After(30 * time.Second)
	for got.Load() < uint64(b.N) {
		select {
		case <-deadline:
			b.Fatalf("delivered %d of %d", got.Load(), b.N)
		case <-time.After(time.Millisecond):
		}
	}
}

// benchRules installs n per-client steering entries the way an agent
// programs them — five-tuple matches on the client's address — none of
// which match the benchmark flow, so a full scan is the miss cost and the
// flow cache is what saves it.
func benchRules(sw *Switch, n int) {
	proto := uint8(packet.ProtoUDP)
	for i := 0; i < n; i++ {
		ip := packet.IP{10, 0, 1, byte(i)}
		port := uint16(7000 + i)
		sw.AddRule(Rule{Priority: 10, Match: Match{Proto: &proto, SrcIP: &ip, DstPort: &port},
			Action: ActionRedirect, OutPort: PortID(i)})
	}
}

// BenchmarkSwitchForwardParallel drives the forwarding pipeline from
// GOMAXPROCS goroutines at once (run with -cpu 1,2,4 to see the scaling
// the snapshot fast path buys): each worker is a distinct flow through a
// 32-rule table, so verdicts come from the flow cache after the first
// frame.
func BenchmarkSwitchForwardParallel(b *testing.B) {
	const lanes = 16 // ingress/egress port pairs, like cells on a station
	sw := NewSwitch("bench")
	for l := 0; l < lanes; l++ {
		// Peerless endpoints: Send is an O(1) rejection, so the bench
		// prices the forwarding pipeline itself rather than veth
		// delivery goroutines competing for the same GOMAXPROCS.
		sw.Attach(PortID(1+l), newEndpoint("in", clock.System(), LinkParams{MTU: DefaultMTU, QueueLen: 1}, 1))
		sw.AttachService(PortID(100+l), newEndpoint("out", clock.System(), LinkParams{MTU: DefaultMTU, QueueLen: 1}, 1))
	}
	benchRules(sw, 32)
	// Each lane's traffic redirects to its own service port, the
	// chain-ingress steering an agent programs per client.
	for l := 0; l < lanes; l++ {
		in := PortID(1 + l)
		sw.AddRule(Rule{Priority: 20, Match: Match{InPort: &in}, Action: ActionRedirect, OutPort: PortID(100 + l)})
	}

	var worker atomic.Uint64
	frame0 := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0x60, 0}, packet.MAC{2, 0, 0, 0, 0, 0x99},
		packet.IP{10, 0, 0, 1}, packet.IP{10, 99, 0, 1}, 1000, 7000, make([]byte, 470))
	b.SetBytes(int64(len(frame0)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := byte(worker.Add(1) % lanes)
		in := PortID(1 + int(id))
		frame := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0x60, id}, packet.MAC{2, 0, 0, 0, 0, 0x99},
			packet.IP{10, 0, 0, id}, packet.IP{10, 99, 0, 1}, 1000+uint16(id), 7000, make([]byte, 470))
		for pb.Next() {
			sw.Inject(in, frame)
		}
	})
	b.StopTimer()
	// The first frame of each worker flow is the only allowed miss.
	if st := sw.Stats(); uint64(b.N) > worker.Load() && st.CacheHits == 0 {
		b.Fatalf("flow cache never hit: %+v", st)
	}
}

// BenchmarkSwitchSteeringVerdict compares the two halves of the verdict
// path on a station serving many clients (128 steering entries): a
// flow-cache hit vs the full rule scan a miss pays.
func BenchmarkSwitchSteeringVerdict(b *testing.B) {
	mkSwitch := func() (*Switch, *packet.Parser) {
		sw := NewSwitch("bench")
		benchRules(sw, 128)
		var p packet.Parser
		frame := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
			packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}, 1000, 2000, nil)
		if err := p.Parse(frame); err != nil {
			b.Fatal(err)
		}
		return sw, &p
	}
	b.Run("cache-hit", func(b *testing.B) {
		sw, p := mkSwitch()
		st := sw.state.Load()
		sw.steer(1, p, st) // first sight
		sw.steer(1, p, st) // admitted and filled: the cache is warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.steer(1, p, st)
		}
	})
	b.Run("rule-scan-miss", func(b *testing.B) {
		sw, p := mkSwitch()
		st := sw.state.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The work a cache miss pays: the priority-ordered scan.
			for r := range st.rules {
				if st.rules[r].Match.Matches(1, p) {
					break
				}
			}
		}
	})
}

// BenchmarkFlowKeyExtract prices the per-frame key construction the cache
// adds to the pipeline.
func BenchmarkFlowKeyExtract(b *testing.B) {
	var p packet.Parser
	frame := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}, 1000, 2000, nil)
	if err := p.Parse(frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := p.FlowKey()
		_ = k.Hash()
	}
}

func BenchmarkSwitchSteeringLookup(b *testing.B) {
	// Measures the per-frame rule-evaluation cost with a realistic table.
	sw := NewSwitch("bench")
	for i := 0; i < 32; i++ {
		ip := packet.IP{10, 0, 1, byte(i)}
		in := PortID(500 + i)
		sw.AddRule(Rule{Priority: 10, Match: Match{InPort: &in, DstIP: &ip}, Action: ActionRedirect, OutPort: PortID(i)})
	}
	var p packet.Parser
	frame := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}, 1000, 2000, nil)
	if err := p.Parse(frame); err != nil {
		b.Fatal(err)
	}
	rules := sw.Rules()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range rules {
			if rules[r].Match.Matches(1, &p) {
				break
			}
		}
	}
}

// newSteerSwitch is a station switch whose verdict path can be driven one
// frame at a time: rules-1 per-client entries that match nothing the tests
// and benchmarks send (see benchRules) above one in-port rule redirecting
// port 1 to a service port. Both ports are peerless, so delivery is an O(1)
// rejection and a frame buffer may be injected again. The returned frame is
// flow 0 of flowFrame.
func newSteerSwitch(rules int) (*Switch, []byte) {
	sw := NewSwitch("steer")
	sw.Attach(1, newEndpoint("in", clock.System(), LinkParams{MTU: DefaultMTU, QueueLen: 1}, 1))
	sw.AttachService(100, newEndpoint("out", clock.System(), LinkParams{MTU: DefaultMTU, QueueLen: 1}, 1))
	benchRules(sw, rules-1)
	in := PortID(1)
	sw.AddRule(Rule{Priority: 5, Match: Match{InPort: &in}, Action: ActionRedirect, OutPort: 100})
	return sw, packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}, 0, 1, nil)
}

// flowFrame rewrites frame in place into flow i of its family: the UDP
// ports carry i.
func flowFrame(frame []byte, i int) []byte {
	binary.BigEndian.PutUint16(frame[34:], uint16(i))
	binary.BigEndian.PutUint16(frame[36:], uint16(i>>16)+1)
	return frame
}

// BenchmarkSteerResident is the hit path: 256 flows per worker, revisited
// round-robin, every worker on a port of its own (-cpu 1,2 shows what the
// striped locks cost and buy).
func BenchmarkSteerResident(b *testing.B) {
	sw, frame := newSteerSwitch(2)
	var workers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		in, mine, n := PortID(workers.Add(1)), packet.Clone(frame), 0
		var p packet.Parser
		st := sw.state.Load()
		for pb.Next() {
			n = (n + 1) % 256
			if err := p.Parse(flowFrame(mine, n)); err != nil {
				b.Error(err)
				return
			}
			sw.steer(in, &p, st)
		}
	})
}

// BenchmarkSteerScatter is the path of a flow that does not come back
// before it is forgotten: 200 000 flows round-robin. At 2 rules it is
// fwd_scatter_64B's steering cost; at 256 it is the honest price of not
// caching a one-shot flow on a busy station — the whole scan, every frame.
func BenchmarkSteerScatter(b *testing.B) {
	for _, rules := range []int{2, 256} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			sw, frame := newSteerSwitch(rules)
			var p packet.Parser
			st := sw.state.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Parse(flowFrame(frame, i%200000)); err != nil {
					b.Fatal(err)
				}
				sw.steer(1, &p, st)
			}
		})
	}
}

// BenchmarkInjectBatchScatter is fwd_scatter_64B's switch pass forwarded by
// MAC: 32-frame InjectBatch calls, every frame a flow of its own (100 000
// round-robin) between one MAC pair, no steering rule, the destination
// learned behind a peerless port (delivery is an O(1) recycle). Every frame
// starts a run, so what the batch pays per MAC rather than per flow — the
// source's FDB learn and the destination's FDB lookup — shows in ns/frame.
func BenchmarkInjectBatchScatter(b *testing.B) {
	const batchLen, flows = 32, 100000
	sw := NewSwitch("scatter")
	for _, id := range []PortID{1, 2} {
		sw.Attach(id, newEndpoint("peerless", clock.System(), LinkParams{MTU: DefaultMTU, QueueLen: 1}, 1))
	}
	dst := packet.MAC{2, 0, 0, 0, 0, 2}
	sw.fdb.learn(dst, 2)
	template := packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, dst,
		packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}, 0, 1, make([]byte, 22))
	batch := make([][]byte, batchLen)
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = flowFrame(append(packet.BorrowFrame(), template...), next)
			next = (next + 1) % flows
		}
		sw.InjectBatch(1, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLen), "ns/frame")
	if st := sw.Stats(); st.Flooded != 0 || st.Dropped != 0 {
		b.Fatalf("flooded %d, dropped %d: every frame should forward to port 2", st.Flooded, st.Dropped)
	}
}
