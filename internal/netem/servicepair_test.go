package netem

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnf/internal/packet"
)

// The service pair's contract. Toward the service it is a veth. Back from it,
// everything NewVethPair promises a sender — ownership, the MTU and loss
// model, counters on the sending end, buffers back to the pool when nobody
// takes them — with the peer's receiver run on the caller's goroutine
// instead of behind a ring.

// settledGoroutines reads runtime.NumGoroutine once it has stopped falling:
// delivery loops of pairs earlier tests closed take a moment to exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, i = m, 0
		}
	}
	return n
}

func TestServicePairQueuesTowardTheServiceAndCallsBack(t *testing.T) {
	before := settledGoroutines()
	sw, svc := NewServicePair("sw", "svc")
	if got := settledGoroutines(); got != before+1 {
		t.Fatalf("NewServicePair started %d goroutines, want the one that feeds the service", got-before)
	}

	// Back from the service: the receiver runs inside Send, so got needs no
	// lock and no waiting.
	var got [][]byte
	sw.SetBatchReceiver(func(fs [][]byte) { got = append(got, fs...) })
	if err := svc.Send([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if n := svc.SendBatch([][]byte{{1}, {2}, {3}}); n != 3 {
		t.Fatalf("SendBatch = %d", n)
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d of 4 frames by the time Send returned", len(got))
	}
	for i, f := range got {
		if f[0] != byte(i) {
			t.Fatalf("frame %d carries %d", i, f[0])
		}
	}
	if st := svc.Stats(); st.TxFrames != 4 || st.TxBytes != 4 || st.Drops != 0 {
		t.Fatalf("sender stats = %v", st)
	}
	if st := sw.Stats(); st.RxFrames != 4 || st.RxBytes != 4 {
		t.Fatalf("receiver stats = %v", st)
	}

	// Toward the service: on the pair's goroutine, not the sender's.
	arrived := make(chan []byte, 1)
	blocked := make(chan struct{})
	svc.SetBatchReceiver(func(fs [][]byte) {
		<-blocked // a service that takes its time does not hold the sender
		arrived <- fs[0]
	})
	if err := sw.Send([]byte{9}); err != nil {
		t.Fatal(err)
	}
	close(blocked)
	if f := <-arrived; f[0] != 9 {
		t.Fatalf("service got %v", f)
	}

	sw.Close()
	if got := settledGoroutines(); got != before {
		t.Fatalf("Close left %d goroutines behind", got-before)
	}
}

func TestServicePairCountsMTUAndLossDropsOnTheSender(t *testing.T) {
	base := packet.FramePoolOutstanding()
	// NewServicePair takes no options; a lossy direct half needs the pieces.
	b, a := newPair("sw", "svc", []PairOption{WithLink(LinkParams{MTU: 100, LossProb: 0.5}), WithSeed(42)})
	b.startQueue()
	defer a.Close()
	var delivered atomic.Uint64
	b.SetReceiver(func(f []byte) {
		delivered.Add(1)
		packet.ReturnFrame(f)
	})

	if err := a.Send(packet.BorrowFrame()[:200]); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize Send = %v", err)
	}
	if st := a.Stats(); st.Drops != 1 || st.TxFrames != 0 {
		t.Fatalf("after oversize: %v", st)
	}

	const n = 1000
	for i := 0; i < n/2; i++ {
		if err := a.Send(packet.BorrowFrame()[:60]); err != nil {
			t.Fatalf("a lost frame is not the sender's error: %v", err)
		}
	}
	batch := make([][]byte, n/2)
	packet.BorrowFrames(batch)
	for i := range batch {
		batch[i] = batch[i][:60]
	}
	accepted := a.SendBatch(batch)

	st := a.Stats()
	lost := st.Drops - 1
	if lost == 0 || lost == n {
		t.Fatalf("loss model took %d of %d frames at p=0.5", lost, n)
	}
	if st.TxFrames+lost != n || delivered.Load() != st.TxFrames {
		t.Fatalf("sent %d = tx %d + lost %d; delivered %d", n, st.TxFrames, lost, delivered.Load())
	}
	if accepted >= n/2 || accepted == 0 {
		t.Fatalf("SendBatch accepted %d of %d under loss", accepted, n/2)
	}
	if b.Stats().Drops != 0 {
		t.Fatalf("drops counted on the receiving end: %v", b.Stats())
	}
	if got := packet.FramePoolOutstanding(); got != base {
		t.Fatalf("frame pool outstanding = %d, want %d", got, base)
	}
}

func TestServicePairReturnsEveryBufferNobodyTakes(t *testing.T) {
	base := packet.FramePoolOutstanding()
	send := func(ep *Endpoint) {
		ep.Send(packet.BorrowFrame()[:60])
		batch := make([][]byte, 8)
		packet.BorrowFrames(batch)
		ep.SendBatch(batch)
	}

	// No receiver on the peer: frames cross (and count) and are recycled.
	b, a := NewServicePair("sw", "svc")
	send(a)
	if st := b.Stats(); st.RxFrames != 9 {
		t.Fatalf("rx with no receiver = %v", st)
	}
	if got := packet.FramePoolOutstanding(); got != base {
		t.Fatalf("nil receiver leaked: outstanding = %d, want %d", got, base)
	}

	// A receiver removed while the link is up (Switch.Detach does this).
	b.SetReceiver(func([]byte) { t.Error("removed receiver ran") })
	b.SetBatchReceiver(nil)
	send(a)

	// Closing either end closes both; nothing is delivered afterwards.
	b.SetBatchReceiver(func([][]byte) { t.Error("receiver ran on a closed pair") })
	b.Close()
	if err := a.Send(packet.BorrowFrame()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on closed pair = %v", err)
	}
	if n := a.SendBatch([][]byte{packet.BorrowFrame()}); n != 0 {
		t.Fatalf("SendBatch on closed pair = %d", n)
	}
	if got := packet.FramePoolOutstanding(); got != base {
		t.Fatalf("closed pair leaked: outstanding = %d, want %d", got, base)
	}
}

func TestServicePairTakesConcurrentSenders(t *testing.T) {
	b, a := NewServicePair("sw", "svc")
	defer a.Close()
	var mu sync.Mutex
	perSender := map[byte][]uint32{}
	b.SetReceiver(func(f []byte) {
		mu.Lock()
		perSender[f[0]] = append(perSender[f[0]], binary.BigEndian.Uint32(f[1:]))
		mu.Unlock()
	})

	const senders, rounds, per = 2, 200, 16
	var wg sync.WaitGroup
	for s := byte(0); s < senders; s++ {
		wg.Add(1)
		go func(s byte) {
			defer wg.Done()
			seq := uint32(0)
			frame := func() []byte {
				f := []byte{s, 0, 0, 0, 0}
				binary.BigEndian.PutUint32(f[1:], seq)
				seq++
				return f
			}
			for r := 0; r < rounds; r++ {
				batch := make([][]byte, per)
				for i := range batch {
					batch[i] = frame()
				}
				a.SendBatch(batch)
				a.Send(frame())
			}
		}(s)
	}
	wg.Wait()
	for s := byte(0); s < senders; s++ {
		got := perSender[s]
		if len(got) != rounds*(per+1) {
			t.Fatalf("sender %d: delivered %d of %d", s, len(got), rounds*(per+1))
		}
		for i, seq := range got {
			if seq != uint32(i) {
				t.Fatalf("sender %d: frame %d arrived in position %d", s, seq, i)
			}
		}
	}
	if st := a.Stats(); st.TxFrames != senders*rounds*(per+1) {
		t.Fatalf("tx = %d", st.TxFrames)
	}
}

// TestPortKeepsFIFOAcrossAFloodMidBatch: a switch port sees one batch's
// frames in arrival order even when a flood in the middle of the batch forces
// the coalesced unicast out early. The port hangs off the direct half of a
// service pair, so the order it saw is settled when InjectBatch returns.
func TestPortKeepsFIFOAcrossAFloodMidBatch(t *testing.T) {
	tn := newTestNet(t, 1) // port 1: a ring port, so the flood has a second target
	sinkTaps(tn)
	far, swSide := NewServicePair("far", "sw")
	defer far.Close()
	var order []uint32
	record := func(f []byte) {
		order = append(order, binary.BigEndian.Uint32(f[42:]))
		packet.ReturnFrame(f)
	}
	far.SetReceiver(record)
	tn.sw.Attach(2, swSide)
	tn.sw.Inject(2, udpFrame(2, 9, 1, 1)) // the switch learns mac(2) behind the port

	known := packet.BuildUDP(mac(1), mac(2), ip(1), ip(2), 4000, 53, make([]byte, 8))
	unknown := packet.BuildUDP(mac(1), mac(7), ip(1), ip(7), 4000, 53, make([]byte, 8))
	order = order[:0]
	const n = 24
	batch := make([][]byte, n)
	for i := range batch {
		tmpl := known
		if i == n/3 || i == 2*n/3 {
			tmpl = unknown
		}
		batch[i] = stampedFrame(tmpl, uint32(i))
	}
	tn.sw.InjectBatch(1, batch)

	if len(order) != n {
		t.Fatalf("the port saw %d of %d frames", len(order), n)
	}
	for i, stamp := range order {
		if stamp != uint32(i) {
			t.Fatalf("position %d holds frame %d: %v", i, stamp, order)
		}
	}
	if st := tn.sw.Stats(); st.Flooded != 3 { // the learning frame and the two unknowns
		t.Fatalf("flooded = %d", st.Flooded)
	}
}

// TestDetachRacingBatchesReturnsEveryFrame: the delivery path reads its
// receiver without a lock, so a Detach (which clears it) can land between
// any two batches, on a port fed by a ring and on one called directly (the
// way a chain's goroutine re-enters the switch). Whichever side of the
// swap a batch falls on, its buffers end up forwarded or back in the pool.
func TestDetachRacingBatchesReturnsEveryFrame(t *testing.T) {
	base := packet.FramePoolOutstanding()
	veth := func() (far, swSide *Endpoint) { return NewVethPair("far", "sw") }
	service := func() (far, swSide *Endpoint) { swSide, far = NewServicePair("sw", "far"); return far, swSide }
	for _, pair := range []func() (far, swSide *Endpoint){veth, service} {
		tn := newTestNet(t, 1)
		sinkTaps(tn)
		far, swSide := pair()
		tn.sw.Attach(2, swSide)

		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tmpl := packet.BuildUDP(mac(2), mac(1), ip(2), ip(1), 9, 9, make([]byte, 8))
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([][]byte, 16)
				for i := range batch {
					batch[i] = stampedFrame(tmpl, uint32(i))
				}
				far.SendBatch(batch)
				far.Send(stampedFrame(tmpl, 0))
			}
		}()
		for tn.sw.Stats().RxFrames < 1000 {
			runtime.Gosched()
		}
		tn.sw.Detach(2)
		rx := swSide.Stats().RxFrames
		for swSide.Stats().RxFrames < rx+1000 { // still arriving, now with nobody listening
			runtime.Gosched()
		}
		close(stop)
		<-done
		far.Close()
		waitOutstanding(t, base)
	}
}
