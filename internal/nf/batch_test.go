package nf

import (
	"bytes"
	"testing"
	"time"

	"gnf/internal/netem"
	"gnf/internal/packet"
)

// batchDropper drops frames whose first byte is odd.
type batchDropper struct{ name string }

func (d *batchDropper) Name() string { return d.name }
func (d *batchDropper) Kind() string { return "batchdropper" }
func (d *batchDropper) Process(dir Direction, frame []byte) Output {
	return ProcessOne(d, dir, frame)
}
func (d *batchDropper) ProcessBatch(dir Direction, frames [][]byte, out *Output) {
	for _, f := range frames {
		if f[0]%2 == 1 {
			packet.ReturnFrame(f)
			continue
		}
		out.Forward = append(out.Forward, f)
	}
}

// batchBouncer answers outbound frames containing '?' with a reply.
type batchBouncer struct{ name string }

func (b *batchBouncer) Name() string { return b.name }
func (b *batchBouncer) Kind() string { return "batchbouncer" }
func (b *batchBouncer) Process(dir Direction, frame []byte) Output {
	return ProcessOne(b, dir, frame)
}
func (b *batchBouncer) ProcessBatch(dir Direction, frames [][]byte, out *Output) {
	for _, f := range frames {
		if dir == Outbound && bytes.ContainsRune(f, '?') {
			out.Reverse = append(out.Reverse, append(append([]byte(nil), f...), '!'))
		} else {
			out.Forward = append(out.Forward, f)
		}
	}
}

func runBatch(c *Chain, dir Direction, frames [][]byte) *Output {
	out := &Output{}
	c.ProcessBatch(dir, frames, out)
	return out
}

func framesOf(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestChainProcessBatchMatchesPerFrameOrder(t *testing.T) {
	mk := func() *Chain {
		return NewChain("c", &tagger{name: "a", tag: 'a'}, &tagger{name: "b", tag: 'b'})
	}
	for _, dir := range []Direction{Outbound, Inbound} {
		per := mk()
		var want []string
		for _, f := range framesOf("x", "y", "z") {
			o := per.Process(dir, f)
			for _, g := range o.Forward {
				want = append(want, string(g))
			}
		}
		out := runBatch(mk(), dir, framesOf("x", "y", "z"))
		if len(out.Forward) != len(want) || len(out.Reverse) != 0 {
			t.Fatalf("dir %v: batch output %q/%q, want %q", dir, out.Forward, out.Reverse, want)
		}
		for i, f := range out.Forward {
			if string(f) != want[i] {
				t.Fatalf("dir %v frame %d = %q, want %q", dir, i, f, want[i])
			}
		}
	}
}

func TestChainProcessBatchDropsLikePerFrame(t *testing.T) {
	c := NewChain("c", &batchDropper{name: "d"}, &tagger{name: "a", tag: 'a'})
	out := runBatch(c, Outbound, framesOf("0", "1", "2", "3"))
	if len(out.Forward) != 2 || string(out.Forward[0]) != "0a" || string(out.Forward[1]) != "2a" {
		t.Fatalf("forward = %q", out.Forward)
	}
}

// TestChainProcessBatchReverseFrames checks a mid-chain reply re-walks the
// earlier members in the opposite direction, alone or amid a batch.
func TestChainProcessBatchReverseFrames(t *testing.T) {
	mkMembers := func() (*tagger, Function) { return &tagger{name: "a", tag: 'a'}, &batchBouncer{name: "b"} }
	ta, ba := mkMembers()
	perChain := NewChain("c", ta, ba)
	perOut := perChain.Process(Outbound, []byte("q?"))

	tb, bb := mkMembers()
	batchOut := runBatch(NewChain("c", tb, bb), Outbound, framesOf("q?", "ok"))
	if len(batchOut.Reverse) != len(perOut.Reverse) || len(batchOut.Reverse) != 1 {
		t.Fatalf("reverse = %q, alone %q", batchOut.Reverse, perOut.Reverse)
	}
	if string(batchOut.Reverse[0]) != string(perOut.Reverse[0]) {
		t.Fatalf("reverse = %q, want %q", batchOut.Reverse[0], perOut.Reverse[0])
	}
	if len(batchOut.Forward) != 1 || string(batchOut.Forward[0]) != "oka" {
		t.Fatalf("forward = %q", batchOut.Forward)
	}
}

// TestChainProcessBatchMixedMembers drives a chain of members that rewrite
// and drop: each member's survivors are the next member's batch.
func TestChainProcessBatchMixedMembers(t *testing.T) {
	c := NewChain("c",
		&tagger{name: "t1", tag: '1'},
		&batchDropper{name: "d"},
		&tagger{name: "t2", tag: '2'},
	)
	// '1' is odd (0x31), 'B' is even (0x42): after tagging, first bytes
	// decide the drop, so "0.." survives only when its first byte is even.
	out := runBatch(c, Outbound, framesOf("B", "1"))
	if len(out.Forward) != 1 || string(out.Forward[0]) != "B12" {
		t.Fatalf("forward = %q", out.Forward)
	}
}

func TestBatchOutputPool(t *testing.T) {
	o := BorrowBatchOutput()
	o.Forward = append(o.Forward, []byte("f"))
	o.Reverse = append(o.Reverse, []byte("r"))
	ReturnBatchOutput(o)
	o2 := BorrowBatchOutput()
	if len(o2.Forward) != 0 || len(o2.Reverse) != 0 {
		t.Fatalf("recycled output not reset: %q/%q", o2.Forward, o2.Reverse)
	}
	ReturnBatchOutput(o2)
}

// TestChainHostBatchPath sends a burst through a ChainHost, asserting the
// batch is forwarded, dropped and replied to frame by frame.
func TestChainHostBatchPath(t *testing.T) {
	inA, inB := netem.NewVethPair("ci", "hi")
	outA, outB := netem.NewVethPair("co", "ho")
	defer inA.Close()
	defer outA.Close()
	c := NewChain("c", &batchDropper{name: "d"}, &batchBouncer{name: "b"})
	h := NewChainHost(c, inB, outB)
	h.Enable()

	fromEgress := make(chan []byte, 16)
	backToClient := make(chan []byte, 16)
	outA.SetReceiver(func(f []byte) { fromEgress <- f })
	inA.SetReceiver(func(f []byte) { backToClient <- f })

	// "0": forwarded; "1": dropped; "2?": bounced back as a reply.
	inA.SendBatch(framesOf("0", "1", "2?"))
	select {
	case f := <-fromEgress:
		if string(f) != "0" {
			t.Fatalf("egress frame = %q", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no egress frame")
	}
	select {
	case f := <-backToClient:
		if string(f) != "2?!" {
			t.Fatalf("reply = %q", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply frame")
	}
	select {
	case f := <-fromEgress:
		t.Fatalf("dropped frame leaked: %q", f)
	case <-time.After(50 * time.Millisecond):
	}
	if h.Processed() != 3 {
		t.Fatalf("processed = %d", h.Processed())
	}
}

// TestChainHostBatchDisabledDrops checks a batch arriving at a disabled,
// unbuffered host is dropped whole and counted frame by frame.
func TestChainHostBatchDisabledDrops(t *testing.T) {
	inA, inB := netem.NewVethPair("ci", "hi")
	outA, outB := netem.NewVethPair("co", "ho")
	defer inA.Close()
	defer outA.Close()
	h := NewChainHost(NewChain("c", &batchDropper{name: "d"}), inB, outB)

	inA.SendBatch(framesOf("0", "2", "4"))
	deadline := time.Now().Add(2 * time.Second)
	for h.Dropped() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped = %d, want 3", h.Dropped())
		}
		time.Sleep(time.Millisecond)
	}
}
