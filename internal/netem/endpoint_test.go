package netem

import (
	"sync"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/packet"
)

func waitFrame(t *testing.T, ch <-chan []byte) []byte {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for frame")
		return nil
	}
}

func TestVethDeliversBothDirections(t *testing.T) {
	a, b := NewVethPair("veth-a", "veth-b")
	defer a.Close()
	gotA, gotB := make(chan []byte, 1), make(chan []byte, 1)
	a.SetReceiver(func(f []byte) { gotA <- f })
	b.SetReceiver(func(f []byte) { gotB <- f })

	if err := a.Send([]byte("ping")); err != nil {
		t.Fatalf("a.Send: %v", err)
	}
	if string(waitFrame(t, gotB)) != "ping" {
		t.Fatal("b received wrong frame")
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatalf("b.Send: %v", err)
	}
	if string(waitFrame(t, gotA)) != "pong" {
		t.Fatal("a received wrong frame")
	}
	if a.Peer() != b || b.Peer() != a {
		t.Fatal("peers wired wrong")
	}
	if a.Name() != "veth-a" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestVethStats(t *testing.T) {
	a, b := NewVethPair("a", "b")
	defer a.Close()
	done := make(chan struct{}, 4)
	b.SetReceiver(func([]byte) { done <- struct{}{} })
	for i := 0; i < 3; i++ {
		if err := a.Send(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("delivery timeout")
		}
	}
	as, bs := a.Stats(), b.Stats()
	if as.TxFrames != 3 || as.TxBytes != 300 {
		t.Fatalf("a stats = %+v", as)
	}
	if bs.RxFrames != 3 || bs.RxBytes != 300 {
		t.Fatalf("b stats = %+v", bs)
	}
	if as.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestVethMTU(t *testing.T) {
	a, _ := NewVethPair("a", "b", WithLink(LinkParams{MTU: 64}))
	defer a.Close()
	if err := a.Send(make([]byte, 65)); err != ErrFrameTooBig {
		t.Fatalf("oversize send: %v", err)
	}
	if a.Stats().Drops != 1 {
		t.Fatal("oversize not counted as drop")
	}
}

func TestVethClosed(t *testing.T) {
	a, b := NewVethPair("a", "b")
	a.Close()
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send on closed: %v", err)
	}
	if err := b.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("peer not closed: %v", err)
	}
	a.Close() // idempotent
}

// TestVethDrainDeliversWhatWasSent: a frame the sender put on the wire
// before Drain reaches the peer before Drain returns, even on a slow link;
// a send after it fails, and the pair still closes.
func TestVethDrainDeliversWhatWasSent(t *testing.T) {
	a, b := NewVethPair("a", "b", WithLink(LinkParams{Delay: 2 * time.Millisecond}))
	b.SetReceiver(func([]byte) {})
	for i := 0; i < 5; i++ {
		if err := a.Send(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	a.Drain()
	if got := b.Stats().RxFrames; got != 5 {
		t.Fatalf("peer got %d of the 5 frames sent before the drain", got)
	}
	if err := a.Send(make([]byte, 64)); err != ErrClosed {
		t.Fatalf("send after drain: %v", err)
	}
	a.Close()
	if err := b.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("peer not closed: %v", err)
	}
}

// TestVethClosedReceiverCountsWhatItDiscards closes the receiving end while
// frames are still on the wire toward it: every frame the sender counted
// is then either received or one of the receiver's drops.
func TestVethClosedReceiverCountsWhatItDiscards(t *testing.T) {
	const n = 100
	a, b := NewVethPair("a", "b")
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	b.SetReceiver(func([]byte) { once.Do(func() { close(held); <-release }) })
	for i := 0; i < n; i++ {
		switch i {
		case 1:
			<-held // the first frame is in the receiver, the next queue behind it
		case n / 2:
			b.Close()
			close(release)
		}
		a.Send(make([]byte, 64))
	}
	tx := a.Stats().TxFrames
	if tx != n/2 {
		t.Fatalf("sender counted %d frames, want the %d sent before the close", tx, n/2)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := b.Stats()
		if st.RxFrames+st.Drops == tx {
			if st.Drops == 0 {
				t.Fatalf("nothing was left on the wire at the close: rx %d", st.RxFrames)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sender tx %d, receiver rx %d + drops %d", tx, st.RxFrames, st.Drops)
		}
	}
}

func TestVethLossDeterministic(t *testing.T) {
	const n = 1000
	a, b := NewVethPair("a", "b", WithLink(LinkParams{LossProb: 0.5, QueueLen: n}), WithSeed(42))
	defer a.Close()
	got := make(chan []byte, n)
	b.SetReceiver(func(f []byte) { got <- f })
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Sent plus dropped must equal n.
	st := a.Stats()
	if st.TxFrames+st.Drops != n {
		t.Fatalf("tx=%d drops=%d", st.TxFrames, st.Drops)
	}
	if st.Drops < n/4 || st.Drops > 3*n/4 {
		t.Fatalf("loss way off 50%%: %d/%d", st.Drops, n)
	}
}

func TestVethDelayOnVirtualClock(t *testing.T) {
	vc := clock.NewAutoVirtual()
	a, b := NewVethPair("a", "b", WithClock(vc), WithLink(LinkParams{Delay: 10 * time.Millisecond}))
	defer a.Close()
	got := make(chan []byte, 1)
	b.SetReceiver(func(f []byte) { got <- f })
	start := vc.Now()
	if err := a.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFrame(t, got)
	if el := vc.Since(start); el < 10*time.Millisecond {
		t.Fatalf("virtual elapsed = %v, want >= 10ms", el)
	}
}

func TestVethSerializationDelay(t *testing.T) {
	vc := clock.NewAutoVirtual()
	// 1 Mbit/s: a 1250-byte frame takes 10ms to serialize.
	a, b := NewVethPair("a", "b", WithClock(vc), WithLink(LinkParams{RateBps: 1_000_000}))
	defer a.Close()
	got := make(chan []byte, 1)
	b.SetReceiver(func(f []byte) { got <- f })
	start := vc.Now()
	if err := a.Send(make([]byte, 1250)); err != nil {
		t.Fatal(err)
	}
	waitFrame(t, got)
	if el := vc.Since(start); el != 10*time.Millisecond {
		t.Fatalf("serialization delay = %v, want 10ms", el)
	}
}

func TestVethQueueOverflowDrops(t *testing.T) {
	// No receiver on b, tiny queue, blocked delivery via huge delay on a
	// non-auto virtual clock (the delivery goroutine parks in Sleep).
	vc := clock.NewVirtual()
	a, _ := NewVethPair("a", "b", WithClock(vc), WithLink(LinkParams{Delay: time.Hour, QueueLen: 2}))
	defer a.Close()
	for i := 0; i < 10; i++ {
		a.Send([]byte{1})
	}
	st := a.Stats()
	if st.Drops == 0 {
		t.Fatal("expected tail drops with full queue")
	}
	if st.TxFrames+st.Drops != 10 {
		t.Fatalf("tx=%d drops=%d, want sum 10", st.TxFrames, st.Drops)
	}
}

func TestUnpairedEndpointSend(t *testing.T) {
	e := newEndpoint("solo", clock.System(), LinkParams{MTU: DefaultMTU, QueueLen: 1}, 1)
	if err := e.Send([]byte("x")); err != ErrNoPeer {
		t.Fatalf("send without peer: %v", err)
	}
}

// End-to-end: frames built by the packet library traverse a veth intact.
func TestVethCarriesRealFrames(t *testing.T) {
	a, b := NewVethPair("a", "b")
	defer a.Close()
	got := make(chan []byte, 1)
	b.SetReceiver(func(f []byte) { got <- f })
	frame := packet.BuildUDP(
		packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
		packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}, 1000, 2000, []byte("payload"))
	if err := a.Send(frame); err != nil {
		t.Fatal(err)
	}
	var p packet.Parser
	if err := p.Parse(waitFrame(t, got)); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if string(p.UDP.Payload()) != "payload" {
		t.Fatal("payload corrupted in transit")
	}
}
