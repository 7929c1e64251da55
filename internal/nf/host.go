package nf

import (
	"sync"
	"sync/atomic"

	"gnf/internal/netem"
)

// ChainHost wires a Function (usually a Chain) between the two virtual
// Ethernet interfaces of its container, exactly the §3 layout: "All
// containers are connected to the local software switch by two virtual
// Ethernet pairs (for ingress/egress traffic, respectively)".
//
// Frames arriving on the ingress endpoint are processed Outbound and
// emitted on egress; frames arriving on egress are processed Inbound and
// emitted on ingress. While the host is disabled (container stopped,
// migration in flight) traffic is dropped and counted — that window is the
// measured migration downtime. A host deployed for a migration may instead
// arm a brownout buffer (BufferWhileDisabled): frames arriving while
// disabled are then parked and replayed, in order, when Enable activates
// the chain — the zero-loss handoff path.
type ChainHost struct {
	fn      Function
	ingress *netem.Endpoint
	egress  *netem.Endpoint

	enabled   atomic.Bool
	processed atomic.Uint64
	dropped   atomic.Uint64
	replayed  atomic.Uint64

	// bufMu orders brownout buffering against Enable's drain: once Enable
	// has flipped enabled under bufMu, no handler can park another frame.
	bufMu  sync.Mutex
	buffer *netem.FrameBuffer // nil = disarmed (plain drop-while-disabled)
}

// NewChainHost binds fn between the container-side endpoints ingress and
// egress. The host starts disabled; call Enable once the container runs.
func NewChainHost(fn Function, ingress, egress *netem.Endpoint) *ChainHost {
	h := &ChainHost{fn: fn, ingress: ingress, egress: egress}
	ingress.SetBatchReceiver(func(frames [][]byte) { h.receive(Outbound, frames) })
	egress.SetBatchReceiver(func(frames [][]byte) { h.receive(Inbound, frames) })
	return h
}

// Function returns the hosted function.
func (h *ChainHost) Function() Function { return h.fn }

// BufferWhileDisabled arms the brownout buffer: up to limit frames arriving
// while the host is disabled are parked instead of dropped and replayed on
// the next Enable. Arm it on migration deploys only — a chain disabled by
// an activation schedule must keep dropping out-of-window traffic.
func (h *ChainHost) BufferWhileDisabled(limit int) {
	h.bufMu.Lock()
	if !h.enabled.Load() && h.buffer == nil {
		h.buffer = netem.NewFrameBuffer(limit)
	}
	h.bufMu.Unlock()
}

// Enable starts forwarding. If a brownout buffer is armed, its parked
// frames are first replayed through the chain in arrival order — each run
// of same-direction frames as one batch — then the buffer is disarmed:
// every frame the freeze window parked reaches the network before (not
// interleaved after) newly arriving traffic jumps the queue.
func (h *ChainHost) Enable() {
	var run [][]byte
	for {
		h.bufMu.Lock()
		var parked []netem.BufferedFrame
		if h.buffer != nil {
			parked = h.buffer.Drain()
		}
		if len(parked) == 0 {
			// Nothing (left) to replay: activate atomically with the drain
			// check so a concurrent handler cannot park a frame we would
			// never see.
			h.buffer = nil
			h.enabled.Store(true)
			h.bufMu.Unlock()
			return
		}
		h.bufMu.Unlock()
		h.replayed.Add(uint64(len(parked)))
		for i, bf := range parked {
			run = append(run, bf.Frame)
			if i == len(parked)-1 || parked[i+1].Tag != bf.Tag {
				h.run(Direction(bf.Tag), run)
				run = run[:0]
			}
		}
	}
}

// Disable stops forwarding; in-flight frames are dropped (or parked, when
// a brownout buffer is armed).
func (h *ChainHost) Disable() { h.enabled.Store(false) }

// FreezeBuffered disables forwarding and arms the brownout buffer in one
// step — the migration freeze on a *source* chain: late stragglers park
// instead of dropping mid-freeze. Whatever is still parked at teardown is
// surfaced through Parked() so the owner can account it as loss.
func (h *ChainHost) FreezeBuffered(limit int) {
	h.bufMu.Lock()
	h.enabled.Store(false)
	if h.buffer == nil {
		h.buffer = netem.NewFrameBuffer(limit)
	}
	h.bufMu.Unlock()
}

// Enabled reports whether the host forwards traffic.
func (h *ChainHost) Enabled() bool { return h.enabled.Load() }

// Processed returns the count of frames handled while enabled.
func (h *ChainHost) Processed() uint64 { return h.processed.Load() }

// Dropped returns the count of frames discarded while disabled.
func (h *ChainHost) Dropped() uint64 { return h.dropped.Load() }

// Replayed returns the count of brownout-buffered frames replayed through
// the chain by Enable. Frames refused by a full buffer land in Dropped, so
// Dropped stays the single loss signal whether or not a buffer is armed.
func (h *ChainHost) Replayed() uint64 { return h.replayed.Load() }

// Parked reports frames currently held in the brownout buffer. A host
// torn down with parked frames has lost them — teardown accounting must
// fold this into its drop totals, or a frozen source's buffered frames
// would vanish uncounted.
func (h *ChainHost) Parked() uint64 {
	h.bufMu.Lock()
	defer h.bufMu.Unlock()
	if h.buffer == nil {
		return 0
	}
	return uint64(h.buffer.Len())
}

// receive is the host's one handler, gated once per batch: a batch that
// arrives while the host is disabled is parked in order under one bufMu
// hold, or dropped and counted as far as the buffer is disarmed or full.
func (h *ChainHost) receive(dir Direction, frames [][]byte) {
	if !h.enabled.Load() {
		h.bufMu.Lock()
		if !h.enabled.Load() {
			parked := 0
			if h.buffer != nil {
				parked = h.buffer.Push(uint8(dir), frames)
			}
			h.bufMu.Unlock()
			h.dropped.Add(uint64(len(frames) - parked))
			return
		}
		// Enable won the race while we took the lock.
		h.bufMu.Unlock()
	}
	h.run(dir, frames)
}

// run processes a batch that passed the gate and sends the outputs on as
// batches.
func (h *ChainHost) run(dir Direction, frames [][]byte) {
	h.processed.Add(uint64(len(frames)))
	out := BorrowBatchOutput()
	h.fn.ProcessBatch(dir, frames, out)
	fwd, rev := h.egress, h.ingress
	if dir == Inbound {
		fwd, rev = h.ingress, h.egress
	}
	if len(out.Forward) > 0 {
		fwd.SendBatch(out.Forward)
	}
	if len(out.Reverse) > 0 {
		rev.SendBatch(out.Reverse)
	}
	ReturnBatchOutput(out)
}
