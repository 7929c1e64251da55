package nf

import "sync"

// A frame's one path through a function is ProcessBatch: the unit of work
// is a batch, which costs one mutex acquire and one parse and table lookup
// per same-flow run (packet.Run) instead of per frame. A single frame is a
// batch of one (ProcessOne), so there is no second path to keep in step.

// Output collects what a function emits for a batch. The caller owns (and
// typically pools) the struct; implementations append to the slices and
// must not retain them past the call.
type Output struct {
	// Forward frames continue in the input batch's direction.
	Forward [][]byte
	// Reverse frames are emitted back toward the batch's origin.
	Reverse [][]byte
}

// Reset clears the output for reuse, dropping frame references so buffers
// handed downstream are not pinned.
func (o *Output) Reset() {
	clearFrames(o.Forward)
	clearFrames(o.Reverse)
	o.Forward = o.Forward[:0]
	o.Reverse = o.Reverse[:0]
}

// ProcessOne runs frame through fn as a batch of one, its output sized for
// the frame passing. Every Function's Process is this call.
func ProcessOne(fn Function, dir Direction, frame []byte) Output {
	out := Output{Forward: make([][]byte, 0, 1)}
	fn.ProcessBatch(dir, [][]byte{frame}, &out)
	return out
}

// BorrowBatchOutput fetches a pooled, reset Output; pair it with
// ReturnBatchOutput once its frames have been handed off.
func BorrowBatchOutput() *Output {
	return outputPool.Get().(*Output)
}

// ReturnBatchOutput resets and recycles o.
func ReturnBatchOutput(o *Output) {
	o.Reset()
	outputPool.Put(o)
}

var outputPool = sync.Pool{New: func() any { return new(Output) }}

// chainScratch is the pooled working set of one Chain.pass: the two
// ping-pong frame batches threaded member to member and the per-member
// output.
type chainScratch struct {
	a, b   [][]byte
	member Output
}

var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

func (sc *chainScratch) release() {
	clearFrames(sc.a)
	clearFrames(sc.b)
	sc.a, sc.b = sc.a[:0], sc.b[:0]
	sc.member.Reset()
	chainScratchPool.Put(sc)
}

func clearFrames(fs [][]byte) {
	for i := range fs {
		fs[i] = nil
	}
}

// ProcessBatch implements Function by threading the whole batch through
// the chain member by member.
func (c *Chain) ProcessBatch(dir Direction, frames [][]byte, out *Output) {
	egress, ingress := &out.Forward, &out.Reverse
	start := 0
	if dir == Inbound {
		egress, ingress = ingress, egress
		start = len(c.fns) - 1
	}
	c.pass(dir, start, frames, egress, ingress)
}

// pass threads frames through the members from position i on, travelling
// dir; a member's Reverse frames are passed back as a batch of their own.
// Frames leaving the chain are appended to egress (the network side) or
// ingress (the client side).
func (c *Chain) pass(dir Direction, i int, frames [][]byte, egress, ingress *[][]byte) {
	step, exit := 1, egress
	if dir == Inbound {
		step, exit = -1, ingress
	}
	sc := chainScratchPool.Get().(*chainScratch)
	cur, next := append(sc.a[:0], frames...), sc.b[:0]
	for ; i >= 0 && i < len(c.fns) && len(cur) > 0; i += step {
		sc.member.Reset()
		c.fns[i].ProcessBatch(dir, cur, &sc.member)
		next = append(next, sc.member.Forward...)
		if len(sc.member.Reverse) > 0 {
			c.pass(dir.Opposite(), i-step, sc.member.Reverse, egress, ingress)
		}
		clearFrames(cur)
		cur, next = next, cur[:0]
	}
	*exit = append(*exit, cur...)
	sc.a, sc.b = cur, next
	sc.release()
}
