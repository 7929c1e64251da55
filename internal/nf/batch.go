package nf

import "sync"

// Batched processing. A BatchProcessor handles a whole batch of frames in
// one call — one mutex acquire per batch and one parse and table lookup per
// same-flow run (packet.Run) instead of per frame, which is where the
// per-frame cost of the builtin middleboxes lives. For those, Process is
// ProcessBatch of one frame, so there is one path; functions without the
// fast path are driven frame by frame through Process.

// BatchOutput collects the result of a ProcessBatch call. The caller owns
// (and typically pools) the struct; implementations append to the slices
// and must not retain them past the call.
type BatchOutput struct {
	// Forward frames continue in the input batch's direction.
	Forward [][]byte
	// Reverse frames are emitted back toward the batch's origin.
	Reverse [][]byte
}

// Reset clears the output for reuse, dropping frame references so buffers
// handed downstream are not pinned.
func (o *BatchOutput) Reset() {
	for i := range o.Forward {
		o.Forward[i] = nil
	}
	for i := range o.Reverse {
		o.Reverse[i] = nil
	}
	o.Forward = o.Forward[:0]
	o.Reverse = o.Reverse[:0]
}

// BatchProcessor is the batched fast path of a Function. ProcessBatch must
// produce exactly the frames that per-frame Process calls would, in order.
// Ownership of every input frame transfers to the implementation: frames
// not appended to out are consumed and should be recycled with
// packet.ReturnFrame. The frames slice itself remains the caller's.
type BatchProcessor interface {
	ProcessBatch(dir Direction, frames [][]byte, out *BatchOutput)
}

// BorrowBatchOutput fetches a pooled, reset BatchOutput; pair it with
// ReturnBatchOutput once its frames have been handed off.
func BorrowBatchOutput() *BatchOutput {
	return batchOutputPool.Get().(*BatchOutput)
}

// ReturnBatchOutput resets and recycles o.
func ReturnBatchOutput(o *BatchOutput) {
	o.Reset()
	batchOutputPool.Put(o)
}

var batchOutputPool = sync.Pool{New: func() any { return new(BatchOutput) }}

// chainScratch is the pooled working set of Chain.ProcessBatch: the two
// ping-pong frame batches threaded member to member, the per-member
// output, and the collectors for frames leaving the chain via the reverse
// walk.
type chainScratch struct {
	a, b    [][]byte
	member  BatchOutput
	egress  [][]byte
	ingress [][]byte
}

var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

func (sc *chainScratch) release() {
	clearFrames(sc.a)
	clearFrames(sc.b)
	sc.a, sc.b = sc.a[:0], sc.b[:0]
	sc.member.Reset()
	clearFrames(sc.egress)
	clearFrames(sc.ingress)
	sc.egress, sc.ingress = sc.egress[:0], sc.ingress[:0]
	chainScratchPool.Put(sc)
}

func clearFrames(fs [][]byte) {
	for i := range fs {
		fs[i] = nil
	}
}

// ProcessBatch implements BatchProcessor by threading the whole batch
// through the chain member by member: members with a batch fast path get
// the surviving batch in one call, the rest fall back to per-frame
// Process. Reverse frames emitted by a member re-traverse the members the
// batch already passed via the same walk Process uses, preserving full
// middlebox semantics.
func (c *Chain) ProcessBatch(dir Direction, frames [][]byte, out *BatchOutput) {
	sc := chainScratchPool.Get().(*chainScratch)
	cur := append(sc.a[:0], frames...)
	next := sc.b[:0]

	step := 1
	idx := 0
	if dir == Inbound {
		step = -1
		idx = len(c.fns) - 1
	}
	for ; idx >= 0 && idx < len(c.fns); idx += step {
		fn := c.fns[idx]
		back := idx - step
		if bp, ok := fn.(BatchProcessor); ok {
			sc.member.Reset()
			bp.ProcessBatch(dir, cur, &sc.member)
			next = append(next, sc.member.Forward...)
			for _, rf := range sc.member.Reverse {
				c.walk(dir.Opposite(), back, rf, &sc.egress, &sc.ingress)
			}
		} else {
			for _, f := range cur {
				o := fn.Process(dir, f)
				next = append(next, o.Forward...)
				for _, rf := range o.Reverse {
					c.walk(dir.Opposite(), back, rf, &sc.egress, &sc.ingress)
				}
			}
		}
		clearFrames(cur)
		cur, next = next, cur[:0]
	}

	out.Forward = append(out.Forward, cur...)
	if dir == Outbound {
		out.Forward = append(out.Forward, sc.egress...)
		out.Reverse = append(out.Reverse, sc.ingress...)
	} else {
		out.Forward = append(out.Forward, sc.ingress...)
		out.Reverse = append(out.Reverse, sc.egress...)
	}

	sc.a, sc.b = cur, next
	sc.release()
}

var _ BatchProcessor = (*Chain)(nil)
