package netem

import (
	"sync"
	"sync/atomic"
)

// FrameBuffer is a bounded FIFO frame queue — the brownout buffer a chain
// host arms while it is disabled for a migration: frames that would
// otherwise be dropped during the freeze window are parked here and
// replayed, in arrival order, once the target side activates. Tag carries
// caller-defined per-frame context (the chain host stores the traversal
// direction there).
type FrameBuffer struct {
	mu       sync.Mutex
	limit    int
	frames   []BufferedFrame
	overflow atomic.Uint64
}

// BufferedFrame is one parked frame plus its caller-defined tag.
type BufferedFrame struct {
	Tag   uint8
	Frame []byte
}

// NewFrameBuffer creates a buffer holding at most limit frames; limit < 1
// is raised to 1.
func NewFrameBuffer(limit int) *FrameBuffer {
	if limit < 1 {
		limit = 1
	}
	return &FrameBuffer{limit: limit}
}

// Push parks as many of frames as fit, in order, and returns how many it
// took. The rest are refused and counted as overflow — lost, exactly as a
// tail-dropping queue would lose them.
func (b *FrameBuffer) Push(tag uint8, frames [][]byte) int {
	b.mu.Lock()
	n := min(len(frames), b.limit-len(b.frames))
	for _, f := range frames[:n] {
		b.frames = append(b.frames, BufferedFrame{Tag: tag, Frame: f})
	}
	b.mu.Unlock()
	b.overflow.Add(uint64(len(frames) - n))
	return n
}

// Drain removes and returns every parked frame in arrival order.
func (b *FrameBuffer) Drain() []BufferedFrame {
	b.mu.Lock()
	out := b.frames
	b.frames = nil
	b.mu.Unlock()
	return out
}

// Len reports the number of parked frames.
func (b *FrameBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.frames)
}

// Overflow reports how many frames were refused because the buffer was
// full.
func (b *FrameBuffer) Overflow() uint64 { return b.overflow.Load() }
