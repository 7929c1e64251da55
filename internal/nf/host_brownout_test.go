package nf

import (
	"testing"
	"time"

	"gnf/internal/netem"
)

// brownoutHost builds a disabled ChainHost around a tagger, wired as an agent
// wires a chain — service pairs — with far sides that collect emitted frames.
func brownoutHost(t *testing.T) (*ChainHost, *netem.Endpoint, chan []byte) {
	t.Helper()
	swIn, chainIn := netem.NewServicePair("b-in0", "b-in1")
	swOut, chainOut := netem.NewServicePair("b-out0", "b-out1")
	t.Cleanup(func() { swIn.Close(); swOut.Close() })
	egress := make(chan []byte, 64)
	swOut.SetReceiver(func(f []byte) { egress <- f })
	h := NewChainHost(&tagger{name: "t", tag: 'x'}, chainIn, chainOut)
	return h, swIn, egress
}

func collect(ch chan []byte, n int, d time.Duration) [][]byte {
	var out [][]byte
	deadline := time.After(d)
	for len(out) < n {
		select {
		case f := <-ch:
			out = append(out, f)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestBrownoutBufferReplaysOnEnable(t *testing.T) {
	h, swIn, egress := brownoutHost(t)
	h.BufferWhileDisabled(16)
	for i := 0; i < 5; i++ {
		swIn.Send([]byte{byte(i)})
	}
	// Frames park; none emerge and none drop.
	if got := collect(egress, 1, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("disabled host emitted %d frames", len(got))
	}
	if h.Dropped() != 0 {
		t.Fatalf("dropped = %d while buffering", h.Dropped())
	}
	h.Enable()
	got := collect(egress, 5, 2*time.Second)
	if len(got) != 5 {
		t.Fatalf("replayed %d frames, want 5", len(got))
	}
	for i, f := range got {
		if f[0] != byte(i) {
			t.Fatalf("frame %d = %v, replay out of order", i, f)
		}
	}
	if h.Replayed() != 5 || h.Processed() != 5 {
		t.Fatalf("replayed=%d processed=%d", h.Replayed(), h.Processed())
	}
}

func TestBrownoutOverflowCountsAsDrops(t *testing.T) {
	h, swIn, _ := brownoutHost(t)
	h.BufferWhileDisabled(2)
	for i := 0; i < 5; i++ {
		swIn.Send([]byte{byte(i)})
	}
	deadline := time.After(2 * time.Second)
	for h.Dropped() != 3 {
		select {
		case <-deadline:
			t.Fatalf("dropped = %d, want 3 (buffer depth 2 of 5 frames)", h.Dropped())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestUnbufferedDisableStillDrops(t *testing.T) {
	h, swIn, _ := brownoutHost(t)
	// No BufferWhileDisabled: schedule-window semantics, frames drop.
	swIn.Send([]byte{1})
	deadline := time.After(2 * time.Second)
	for h.Dropped() != 1 {
		select {
		case <-deadline:
			t.Fatalf("dropped = %d, want 1", h.Dropped())
		case <-time.After(time.Millisecond):
		}
	}
	h.Enable()
	if h.Replayed() != 0 {
		t.Fatalf("replayed = %d on unbuffered host", h.Replayed())
	}
}

func TestFreezeBufferedParksInFlight(t *testing.T) {
	h, swIn, egress := brownoutHost(t)
	h.Enable()
	swIn.Send([]byte{1})
	if got := collect(egress, 1, 2*time.Second); len(got) != 1 {
		t.Fatal("enabled host did not forward")
	}
	h.FreezeBuffered(16)
	swIn.Send([]byte{2})
	swIn.Send([]byte{3})
	// The frozen window parks, never drops.
	if got := collect(egress, 1, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("frozen host emitted %d frames", len(got))
	}
	if h.Dropped() != 0 {
		t.Fatalf("freeze dropped %d frames", h.Dropped())
	}
	h.Enable()
	if got := collect(egress, 2, 2*time.Second); len(got) != 2 {
		t.Fatalf("replayed %d frames after freeze, want 2", len(got))
	}
	if h.Dropped() != 0 || h.Processed() != 3 {
		t.Fatalf("processed=%d dropped=%d", h.Processed(), h.Dropped())
	}
}

// TestBrownoutGatesEachBatchWhole: a disabled host's gate runs once per
// batch. Batches and single frames from both sides park in arrival order
// until the buffer is full and the rest count as drops; Enable replays
// every run of same-side frames, and each side gets its frames in the
// order they came.
func TestBrownoutGatesEachBatchWhole(t *testing.T) {
	swIn, chainIn := netem.NewServicePair("g-in0", "g-in1")
	swOut, chainOut := netem.NewServicePair("g-out0", "g-out1")
	t.Cleanup(func() { swIn.Close(); swOut.Close() })
	toNet, toClient := make(chan []byte, 64), make(chan []byte, 64)
	swOut.SetReceiver(func(f []byte) { toNet <- f })
	swIn.SetReceiver(func(f []byte) { toClient <- f })
	h := NewChainHost(&tagger{name: "t", tag: 'x'}, chainIn, chainOut)
	const limit = 10
	h.BufferWhileDisabled(limit)

	sent := 0
	arrive := func(from *netem.Endpoint, side byte, n int) {
		t.Helper()
		batch := make([][]byte, n)
		for i := range batch {
			batch[i] = []byte{side, byte(sent + i)}
		}
		if n == 1 {
			from.Send(batch[0])
		} else {
			from.SendBatch(batch)
		}
		sent += n
		for deadline := time.Now().Add(2 * time.Second); h.Parked()+h.Dropped() != uint64(sent); {
			if time.Now().After(deadline) {
				t.Fatalf("after %d frames: parked %d, dropped %d", sent, h.Parked(), h.Dropped())
			}
			time.Sleep(time.Millisecond)
		}
	}
	arrive(swIn, 'o', 3)  // 0-2
	arrive(swOut, 'i', 1) // 3
	arrive(swIn, 'o', 1)  // 4
	arrive(swOut, 'i', 4) // 5-8
	arrive(swIn, 'o', 3)  // 9 parks, 10 and 11 overflow
	if h.Parked() != limit || h.Dropped() != 2 {
		t.Fatalf("parked %d, dropped %d; want %d and 2", h.Parked(), h.Dropped(), limit)
	}
	h.Enable()

	for _, side := range []struct {
		name string
		ch   chan []byte
		want []byte
	}{
		{"network", toNet, []byte{0, 1, 2, 4, 9}},
		{"client", toClient, []byte{3, 5, 6, 7, 8}},
	} {
		got := collect(side.ch, len(side.want), 2*time.Second)
		if len(got) != len(side.want) {
			t.Fatalf("%s side got %d frames, want %d", side.name, len(got), len(side.want))
		}
		for i, f := range got {
			if f[1] != side.want[i] || f[len(f)-1] != 'x' {
				t.Fatalf("%s side frame %d = %q, want arrival %d through the chain", side.name, i, f, side.want[i])
			}
		}
	}
	if h.Replayed() != limit || h.Processed() != limit || h.Dropped() != 2 {
		t.Fatalf("replayed %d, processed %d, dropped %d; want %d, %d, 2", h.Replayed(), h.Processed(), h.Dropped(), limit, limit)
	}
}
