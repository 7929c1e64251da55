package netem

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/packet"
)

func TestFrameRingOrderAndTailDrop(t *testing.T) {
	r := newFrameRing(4)
	frames := [][]byte{{1}, {2}, {3}, {4}, {5}}
	for i, f := range frames[:4] {
		if !r.push(f) {
			t.Fatalf("push %d refused", i)
		}
	}
	if r.push(frames[4]) {
		t.Fatal("push into full ring accepted")
	}
	if r.len() != 4 {
		t.Fatalf("len = %d", r.len())
	}
	select {
	case <-r.wait():
	default:
		t.Fatal("no wakeup pending after push")
	}

	dst := make([][]byte, 0, 2)
	got := r.popBatch(dst)
	if len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("popBatch = %v", got)
	}
	// Freed two slots: a batch of three fits two.
	if n := r.pushBatch([][]byte{{6}, {7}, {8}}); n != 2 {
		t.Fatalf("pushBatch = %d, want 2", n)
	}
	got = r.popBatch(make([][]byte, 0, 8))
	if len(got) != 4 || got[0][0] != 3 || got[3][0] != 7 {
		t.Fatalf("drained = %v", got)
	}
}

func TestSendBatchDeliversInOrder(t *testing.T) {
	a, b := NewVethPair("a", "b")
	t.Cleanup(a.Close)
	var mu sync.Mutex
	var got []byte // first payload byte per frame, in arrival order
	batches := 0
	b.SetBatchReceiver(func(frames [][]byte) {
		mu.Lock()
		batches++
		for _, f := range frames {
			got = append(got, f[0])
		}
		mu.Unlock()
	})

	const n = 100
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	if sent := a.SendBatch(batch); sent != n {
		t.Fatalf("SendBatch = %d", sent)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := len(got) == n
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("frame %d delivered out of order (payload %d)", i, v)
		}
	}
	if batches == 0 {
		t.Fatal("batch receiver never invoked")
	}
	if st := a.Stats(); st.TxFrames != n || st.Drops != 0 {
		t.Fatalf("stats = %v", st)
	}
}

func TestSendBatchRecyclesDrops(t *testing.T) {
	base := packet.FramePoolOutstanding()
	a, b := NewVethPair("a", "b", WithLink(LinkParams{MTU: 100}))
	b.SetBatchReceiver(func(frames [][]byte) {
		for _, f := range frames {
			packet.ReturnFrame(f)
		}
	})
	t.Cleanup(a.Close)

	oversize := packet.BorrowFrame()[:200]
	fits := packet.BorrowFrame()[:50]
	if sent := a.SendBatch([][]byte{oversize, fits}); sent != 1 {
		t.Fatalf("SendBatch = %d, want 1", sent)
	}
	if st := a.Stats(); st.Drops != 1 {
		t.Fatalf("drops = %d", st.Drops)
	}
	waitOutstanding(t, base)

	// Closed endpoint: the whole batch is recycled.
	a.Close()
	if sent := a.SendBatch([][]byte{packet.BorrowFrame()[:10]}); sent != 0 {
		t.Fatalf("SendBatch on closed = %d", sent)
	}
	waitOutstanding(t, base)
}

// waitOutstanding polls until the frame pool's outstanding count drops back
// to base (delivery and recycling are asynchronous).
func waitOutstanding(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for packet.FramePoolOutstanding() != base {
		if time.Now().After(deadline) {
			t.Fatalf("frame pool outstanding = %d, want %d", packet.FramePoolOutstanding(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// loadFrame builds a pooled copy of template with a uint32 stamp written
// into the UDP payload (offset 42).
func stampedFrame(template []byte, stamp uint32) []byte {
	f := packet.BorrowFrame()[:len(template)]
	copy(f, template)
	binary.BigEndian.PutUint32(f[42:], stamp)
	return f
}

// TestInjectBatchMatchesPerFrame pushes the same frames through the
// per-frame and batched switch paths and expects identical forwarding.
func TestInjectBatchMatchesPerFrame(t *testing.T) {
	tn := newTestNet(t, 3)
	// Learn host 2's port so forwarding unicasts. The prime frame floods
	// (mac 1 is unknown), so consume it from both other taps.
	tn.eps[1].Send(udpFrame(2, 1, 9, 9))
	expectFrame(t, tn.taps[0])
	expectFrame(t, tn.taps[2])

	template := packet.BuildUDP(mac(1), mac(2), ip(1), ip(2), 4000, 53, make([]byte, 8))
	const n = 32
	perFrame := make([][]byte, n)
	batched := make([][]byte, n)
	for i := range perFrame {
		perFrame[i] = stampedFrame(template, uint32(i))
		batched[i] = stampedFrame(template, uint32(i))
	}
	for _, f := range perFrame {
		tn.sw.Inject(1, f)
	}
	for i := 0; i < n; i++ {
		f := expectFrame(t, tn.taps[1])
		if got := binary.BigEndian.Uint32(f[42:]); got != uint32(i) {
			t.Fatalf("per-frame path: frame %d carries stamp %d", i, got)
		}
	}
	tn.sw.InjectBatch(1, batched)
	for i := 0; i < n; i++ {
		f := expectFrame(t, tn.taps[1])
		if got := binary.BigEndian.Uint32(f[42:]); got != uint32(i) {
			t.Fatalf("batched path: frame %d carries stamp %d", i, got)
		}
	}
	expectSilence(t, tn.taps[2], 50*time.Millisecond)
}

// TestBatchRunAmortization verifies a same-flow batch is steered with one
// verdict: every frame after the first counts as a cache hit without a
// table scan, and all of them still reach the right port.
func TestBatchRunAmortization(t *testing.T) {
	tn := newTestNet(t, 2)
	tn.eps[1].Send(udpFrame(2, 1, 9, 9))
	expectFrame(t, tn.taps[0])
	before := tn.sw.Stats()

	template := packet.BuildUDP(mac(1), mac(2), ip(1), ip(2), 4000, 53, make([]byte, 8))
	const n = 64
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = stampedFrame(template, uint32(i))
	}
	tn.sw.InjectBatch(1, batch)
	for i := 0; i < n; i++ {
		expectFrame(t, tn.taps[1])
	}
	after := tn.sw.Stats()
	if hits := after.CacheHits - before.CacheHits; hits < n-1 {
		t.Fatalf("cache hits = %d, want >= %d (run amortization)", hits, n-1)
	}
}

// TestRuleInstallRacingBatchedForwarding is the generation-bump regression
// test for the batched fast path: while one goroutine streams same-flow
// batches through the switch, the control plane installs a drop rule. The
// staleness check inside inputBatch must re-snapshot the table mid-batch,
// so no frame injected after AddRule returns may ride a stale cached (or
// run-amortized) forward verdict. Run under -race this also proves the
// snapshot handoff is memory-safe.
func TestRuleInstallRacingBatchedForwarding(t *testing.T) {
	tn := newTestNet(t, 2)
	tn.eps[1].Send(udpFrame(2, 1, 9, 9))
	expectFrame(t, tn.taps[0])

	template := packet.BuildUDP(mac(1), mac(2), ip(1), ip(2), 4000, 53, make([]byte, 8))
	var mu sync.Mutex
	injected := uint32(0) // next batch stamp; guarded by mu
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			stamp := injected
			mu.Unlock()
			batch := make([][]byte, 64)
			for i := range batch {
				batch[i] = stampedFrame(template, stamp)
			}
			tn.sw.InjectBatch(1, batch)
			mu.Lock()
			injected = stamp + 1
			mu.Unlock()
		}
	}()

	// Let traffic flow, then install the drop.
	expectFrame(t, tn.taps[1])
	proto := uint8(packet.ProtoUDP)
	tn.sw.AddRule(Rule{Priority: 10, Match: Match{Proto: &proto}, Action: ActionDrop})
	mu.Lock()
	// The batch stamped `injected` may already be mid-flight around the
	// install; every batch stamped strictly later starts after the new
	// table is published and must be dropped entirely.
	boundary := injected
	mu.Unlock()

	timeout := time.After(500 * time.Millisecond)
	for draining := true; draining; {
		select {
		case f := <-tn.taps[1]:
			if stamp := binary.BigEndian.Uint32(f[42:]); stamp > boundary {
				t.Fatalf("frame from batch %d delivered after drop rule installed at batch %d", stamp, boundary)
			}
		case <-timeout:
			draining = false
		}
	}
	close(stop)
	<-done
	// Drain what's left in flight; still nothing newer than the boundary.
	deadline := time.After(200 * time.Millisecond)
	for {
		select {
		case f := <-tn.taps[1]:
			if stamp := binary.BigEndian.Uint32(f[42:]); stamp > boundary {
				t.Fatalf("late frame from batch %d leaked past the drop rule", stamp)
			}
		case <-deadline:
			return
		}
	}
}

// TestSwitchDropPathsRecycle covers the pooled-buffer bookkeeping of every
// switch drop path reachable from a batch: rule drops and hairpin drops
// must return frames to the pool.
func TestSwitchDropPathsRecycle(t *testing.T) {
	base := packet.FramePoolOutstanding()
	tn := newTestNet(t, 2)
	proto := uint8(packet.ProtoUDP)
	tn.sw.AddRule(Rule{Priority: 10, Match: Match{Proto: &proto}, Action: ActionDrop})

	template := packet.BuildUDP(mac(1), mac(2), ip(1), ip(2), 4000, 53, make([]byte, 8))
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = stampedFrame(template, uint32(i))
	}
	tn.sw.InjectBatch(1, batch)
	waitOutstanding(t, base)

	drops := tn.sw.Stats().Dropped
	if drops < 16 {
		t.Fatalf("dropped = %d, want >= 16", drops)
	}
}

// TestHostPathReclaimsPooledFrames is the copy-on-retain leak test: pooled
// frames flowing veth -> switch -> Host must all return to the pool once
// the UDP handler has run, and a handler that copies its payload keeps
// valid data even after the buffers are reused.
func TestHostPathReclaimsPooledFrames(t *testing.T) {
	base := packet.FramePoolOutstanding()
	sw := NewSwitch("sw")
	g1, g2 := NewVethPair("gen", "gen-sw")
	s1, s2 := NewVethPair("sink", "sink-sw")
	sw.Attach(1, g2)
	sw.Attach(2, s2)
	t.Cleanup(func() { g1.Close(); s1.Close() })
	host := NewHost(mac(2), ip(2), s1)
	host.Learn(ip(1), mac(1))

	var mu sync.Mutex
	seen := make(map[uint32]bool)
	host.HandleUDP(53, func(src, dst packet.Endpoint, payload []byte) []byte {
		// Copy-on-retain: the payload aliases a pooled frame that is
		// reclaimed when this handler returns.
		stamp := binary.BigEndian.Uint32(payload)
		mu.Lock()
		seen[stamp] = true
		mu.Unlock()
		return nil
	})
	// Teach the switch where the host lives.
	if err := host.SendUDP(packet.Endpoint{Addr: ip(1), Port: 9}, 9, []byte("prime")); err != nil {
		t.Fatal(err)
	}

	template := packet.BuildUDP(mac(1), mac(2), ip(1), ip(2), 4000, 53, make([]byte, 8))
	const rounds, per = 10, 50
	for r := 0; r < rounds; r++ {
		batch := make([][]byte, per)
		for i := range batch {
			batch[i] = stampedFrame(template, uint32(r*per+i))
		}
		if sent := g1.SendBatch(batch); sent != per {
			t.Fatalf("round %d: sent %d of %d", r, sent, per)
		}
		// Stay well under every queue depth.
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			n := len(seen)
			mu.Unlock()
			if n == (r+1)*per {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: delivered %d of %d", r, n, (r+1)*per)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := uint32(0); i < rounds*per; i++ {
		if !seen[i] {
			t.Fatalf("stamp %d never arrived", i)
		}
	}
	// Every pooled frame must be back: the host returns buffers after the
	// handler, and no path on the way may leak.
	waitOutstanding(t, base)
}

// TestMutationMidRunRepointsTheNextFrame pins down the two memos a run
// keeps — the steering verdict (good for one snapshot) and the
// normal-forwarding port (good for one FDB generation). A run of same-flow
// frames to a MAC the switch cannot place floods frame by frame, and a
// flooded frame reaches a direct port's receiver while the batch is still
// being walked: the receiver changes the switch after frame `at`, and frame
// at+1 — same batch, same run — must already be forwarded by the new state.
func TestMutationMidRunRepointsTheNextFrame(t *testing.T) {
	const n, at = 32, 10
	x := mac(7)
	in := PortID(1)
	cases := []struct {
		name   string
		mutate func(sw *Switch)
		want   [2]int // frames at+1..n-1 seen on ports 2 and 3
		// Frames served without a rule scan. An FDB change leaves the run
		// alive (every frame after the first reuses its verdict); a snapshot
		// change ends it, and frame at+1 pays one more scan.
		hits uint64
	}{
		{"fdb move", func(sw *Switch) {
			// x speaks up on port 3: its entry moves there from the dead port.
			sw.Inject(3, packet.BuildUDP(x, mac(1), ip(7), ip(1), 53, 4000, []byte{0xff, 0xff, 0xff, 0xff}))
		}, [2]int{0, n - 1 - at}, n - 1},
		{"pin", func(sw *Switch) { sw.PinMAC(x, 3) }, [2]int{0, n - 1 - at}, n - 2},
		{"redirect rule", func(sw *Switch) {
			sw.AddRule(Rule{Priority: 10, Match: Match{InPort: &in}, Action: ActionRedirect, OutPort: 2})
		}, [2]int{n - 1 - at, 0}, n - 2},
		{"drop rule", func(sw *Switch) {
			sw.AddRule(Rule{Priority: 10, Match: Match{InPort: &in}, Action: ActionDrop})
		}, [2]int{0, 0}, n - 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewSwitch("sw")
			// The FDB knows x, but behind a port that is gone: lookups
			// succeed and the frame still floods.
			sw.fdb.learn(x, 9)
			var seen [2][]uint32
			for i := range seen {
				i := i
				far, swSide := NewServicePair("far", "sw") // sw → far is the direct half
				defer far.Close()
				far.SetReceiver(func(f []byte) {
					stamp := binary.BigEndian.Uint32(f[42:])
					if stamp < n {
						seen[i] = append(seen[i], stamp)
					}
					if i == 0 && stamp == at {
						tc.mutate(sw)
					}
				})
				sw.Attach(PortID(2+i), swSide)
			}

			template := packet.BuildUDP(mac(1), x, ip(1), ip(7), 4000, 53, make([]byte, 8))
			batch := make([][]byte, n)
			for i := range batch {
				batch[i] = stampedFrame(template, uint32(i))
			}
			sw.InjectBatch(1, batch)

			if st := sw.Stats(); st.CacheHits != tc.hits {
				t.Errorf("CacheHits = %d, want %d", st.CacheHits, tc.hits)
			}
			for i := range seen {
				var before, after int
				for _, stamp := range seen[i] {
					if stamp <= at {
						before++
					} else {
						after++
					}
				}
				if before != at+1 {
					t.Errorf("port %d saw %d of the %d frames flooded before the change", 2+i, before, at+1)
				}
				if after != tc.want[i] {
					t.Errorf("port %d saw %d frames after the change, want %d (%v)", 2+i, after, tc.want[i], seen[i])
				}
			}
		})
	}
}

// TestFDBGenerationMovesWithEveryChange: the generation a run's memo is
// stamped with moves on every change to what lookup can return — a learn
// that changes an entry, a delete, a port flush — and stands still for the
// steady-state learn that changes nothing.
func TestFDBGenerationMovesWithEveryChange(t *testing.T) {
	fdb := newFDBTable()
	moved := func(what string, op func()) {
		t.Helper()
		g := fdb.gen.Load()
		op()
		if fdb.gen.Load() == g {
			t.Fatalf("%s left the generation at %d", what, g)
		}
	}
	if fdb.gen.Load() == 0 {
		t.Fatal("generation 0 is the batch path's 'no memo'")
	}
	moved("first learn", func() { fdb.learn(mac(1), 1) })
	g := fdb.gen.Load()
	fdb.learn(mac(1), 1)
	if fdb.gen.Load() != g {
		t.Fatal("re-learning an unchanged entry moved the generation")
	}
	moved("moving learn", func() { fdb.learn(mac(1), 2) })
	moved("flushPort", func() { fdb.flushPort(2) })
	if _, ok := fdb.lookup(mac(1)); ok {
		t.Fatal("flushPort left the entry")
	}
	fdb.learn(mac(1), 3)
	moved("delete", func() { fdb.delete(mac(1)) })
}

// TestMutationMidBatchRepointsTheNextFlow pins down the two memos a batch
// keeps across runs — the FDB learn of a source MAC and the FDB lookup of a
// destination MAC, each good for one FDB generation and one snapshot. It is
// TestMutationMidRunRepointsTheNextFrame with every frame a flow of its own
// (its own UDP source port) between one MAC pair: every frame starts a run,
// and only the MAC memos carry from one frame to the next. The receiver on
// port 2 changes the switch after frame `at`, and frame at+1 must already
// be learned and forwarded by the new state.
func TestMutationMidBatchRepointsTheNextFlow(t *testing.T) {
	const n, at = 32, 10
	x := mac(7)
	speak := func(sw *Switch, port PortID, src, dst packet.MAC) {
		sw.Inject(port, packet.BuildUDP(src, dst, ip(7), ip(1), 53, 4000, []byte{0xff, 0xff, 0xff, 0xff}))
	}
	cases := []struct {
		name   string
		mutate func(sw *Switch)
		want   [2]int // frames at+1..n-1 seen on ports 2 and 3
	}{
		{"fdb move of the destination", func(sw *Switch) { speak(sw, 3, x, mac(1)) }, [2]int{0, n - 1 - at}},
		{"pin of the destination", func(sw *Switch) { sw.PinMAC(x, 3) }, [2]int{0, n - 1 - at}},
		// The batch's source turns up behind port 3; frame at+1 moves it
		// back to port 1, where the batch's frames come from.
		{"source learned elsewhere", func(sw *Switch) { speak(sw, 3, mac(1), mac(8)) }, [2]int{n - 1 - at, n - 1 - at}},
		// The destination moves to port 3 and port 3 goes with its
		// entries: the next frame floods to the ports that remain.
		{"detach of the destination's port", func(sw *Switch) {
			speak(sw, 3, x, mac(1))
			sw.Detach(3)
		}, [2]int{n - 1 - at, 0}},
		// The port the FDB holds x behind comes up: a new snapshot and
		// the same FDB generation, and the next frame goes there.
		{"attach of the destination's port", func(sw *Switch) {
			sw.Attach(9, newEndpoint("late", clock.System(), LinkParams{MTU: DefaultMTU, QueueLen: 1}, 1))
		}, [2]int{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewSwitch("sw")
			// The FDB knows x, but behind a port that is gone: lookups
			// succeed and the frame still floods.
			sw.fdb.learn(x, 9)
			var seen [2][]uint32
			for i := range seen {
				i := i
				far, swSide := NewServicePair("far", "sw") // sw → far is the direct half
				defer far.Close()
				far.SetReceiver(func(f []byte) {
					stamp := binary.BigEndian.Uint32(f[42:])
					if stamp < n {
						seen[i] = append(seen[i], stamp)
					}
					if i == 0 && stamp == at {
						tc.mutate(sw)
					}
				})
				sw.Attach(PortID(2+i), swSide)
			}

			batch := make([][]byte, n)
			for i := range batch {
				flow := packet.BuildUDP(mac(1), x, ip(1), ip(7), 4000+uint16(i), 53, make([]byte, 8))
				batch[i] = stampedFrame(flow, uint32(i))
			}
			sw.InjectBatch(1, batch)

			// A run reuse would count as a hit, and no flow is seen twice.
			if st := sw.Stats(); st.CacheHits != 0 {
				t.Errorf("CacheHits = %d: a frame continued a run", st.CacheHits)
			}
			if port, ok := sw.LookupFDB(mac(1)); !ok || port != 1 {
				t.Errorf("the batch's source ended on port %d (known %v), want 1", port, ok)
			}
			for i := range seen {
				var before, after int
				for _, stamp := range seen[i] {
					if stamp <= at {
						before++
					} else {
						after++
					}
				}
				if before != at+1 {
					t.Errorf("port %d saw %d of the %d frames flooded before the change", 2+i, before, at+1)
				}
				if after != tc.want[i] {
					t.Errorf("port %d saw %d frames after the change, want %d (%v)", 2+i, after, tc.want[i], seen[i])
				}
			}
		})
	}
}
