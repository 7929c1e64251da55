package netem

import (
	"sync"
	"testing"
)

func TestFrameBufferFIFOAndOverflow(t *testing.T) {
	b := NewFrameBuffer(3)
	for i := 0; i < 3; i++ {
		if b.Push(uint8(i%2), [][]byte{{byte(i)}}) != 1 {
			t.Fatalf("push %d refused below limit", i)
		}
	}
	if b.Push(0, [][]byte{{9}}) != 0 {
		t.Fatal("push accepted past limit")
	}
	if got := b.Overflow(); got != 1 {
		t.Fatalf("overflow = %d, want 1", got)
	}
	if got := b.Len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	frames := b.Drain()
	if len(frames) != 3 {
		t.Fatalf("drained %d frames, want 3", len(frames))
	}
	for i, f := range frames {
		if f.Frame[0] != byte(i) || f.Tag != uint8(i%2) {
			t.Fatalf("frame %d = %+v, out of order", i, f)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("len after drain = %d", b.Len())
	}
	// Room again after draining; a batch parks as far as it fits.
	if n := b.Push(1, [][]byte{{42}, {43}, {44}, {45}}); n != 3 || b.Overflow() != 2 {
		t.Fatalf("batch push parked %d of 4, overflow %d; want 3 and 2", n, b.Overflow())
	}
}

func TestFrameBufferConcurrentPush(t *testing.T) {
	b := NewFrameBuffer(1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Push(0, [][]byte{{1}})
			}
		}()
	}
	wg.Wait()
	if got := b.Len() + int(b.Overflow()); got != 1600 {
		t.Fatalf("parked+overflowed = %d, want 1600", got)
	}
}
