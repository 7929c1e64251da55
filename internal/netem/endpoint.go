// Package netem emulates the GNF dataplane substrate: virtual Ethernet
// pairs (the two-veth container wiring of §3), links with delay/rate/loss
// models, an L2 learning switch with a match-action steering table (the
// "transparent traffic handling" hook the Agents program), and a minimal
// L3 host for traffic endpoints.
//
// Frames are ordinary []byte Ethernet frames; everything that carries cost
// (propagation delay, serialization at a link rate) is expressed against a
// clock.Clock so simulations run deterministically on virtual time.
package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gnf/internal/clock"
	"gnf/internal/packet"
)

// Errors returned by endpoints.
var (
	ErrClosed      = errors.New("netem: endpoint closed")
	ErrNoPeer      = errors.New("netem: endpoint has no peer")
	ErrFrameTooBig = errors.New("netem: frame exceeds MTU")
)

// DefaultMTU bounds frame size including the Ethernet header.
const DefaultMTU = 1514

// defaultQueueLen is the per-direction transmit queue depth (frames).
const defaultQueueLen = 512

// deliverBatchSize caps how many queued frames one delivery pass hands to
// a batch receiver.
const deliverBatchSize = 256

// LinkParams model one direction of a link.
type LinkParams struct {
	Delay    time.Duration // propagation delay
	RateBps  int64         // serialization rate in bits/s; 0 = infinite
	LossProb float64       // independent drop probability in [0,1)
	MTU      int           // 0 = DefaultMTU
	QueueLen int           // 0 = defaultQueueLen
}

// Endpoint is one end of a virtual Ethernet pair. Frames sent on an
// endpoint are delivered — subject to the link model — to the peer's
// receiver function.
type Endpoint struct {
	name string
	clk  clock.Clock
	link LinkParams
	rng  *rand.Rand
	rngM sync.Mutex

	peer *Endpoint

	// recv is read with one atomic load per delivery and replaced whole by
	// the setters, so the frame path takes no lock to find its receiver.
	recv   atomic.Pointer[func(frames [][]byte)]
	ring   *frameRing    // nil on a service pair's svc end: Send runs the peer's receiver
	closed atomic.Uint32 // 0 up; 1 drained: Send refuses, the queue still delivers; 2 closed
	done   chan struct{}

	txFrames, rxFrames atomic.Uint64
	txBytes, rxBytes   atomic.Uint64
	drops              atomic.Uint64
}

// PairOption adjusts veth construction.
type PairOption func(*pairConfig)

type pairConfig struct {
	clk  clock.Clock
	a2b  LinkParams
	b2a  LinkParams
	seed int64
}

// WithClock selects the time source for link delays (default: system).
func WithClock(c clock.Clock) PairOption { return func(pc *pairConfig) { pc.clk = c } }

// WithLink sets symmetric link parameters for both directions.
func WithLink(p LinkParams) PairOption {
	return func(pc *pairConfig) { pc.a2b, pc.b2a = p, p }
}

// WithAsymLink sets per-direction link parameters.
func WithAsymLink(aToB, bToA LinkParams) PairOption {
	return func(pc *pairConfig) { pc.a2b, pc.b2a = aToB, bToA }
}

// WithSeed fixes the loss-model PRNG seed for reproducible tests.
func WithSeed(seed int64) PairOption { return func(pc *pairConfig) { pc.seed = seed } }

// NewVethPair creates a connected pair of endpoints, the emulation of `ip
// link add ... type veth peer ...`. Each direction has a transmit queue and
// the delivery goroutine that drains it; Close either end to stop both.
func NewVethPair(nameA, nameB string, opts ...PairOption) (*Endpoint, *Endpoint) {
	a, b := newPair(nameA, nameB, opts)
	a.startQueue()
	b.startQueue()
	return a, b
}

// NewServicePair creates the same-box link between a switch and a service
// it hosts — an NF chain's leg (a memif, not a bridge hop). Toward the
// service it is a veth: frames sent on sw are queued and the pair's one
// goroutine runs the service's receiver, so every service works on a
// goroutine of its own and a slow one fills its own queue, nobody else's.
// Back from the service there is no wire: Send and SendBatch on svc apply
// MTU and loss, count, and run sw's receiver on the caller's goroutine. It
// takes no options — delay, rate and queue length describe a wire.
func NewServicePair(swName, svcName string) (sw, svc *Endpoint) {
	sw, svc = newPair(swName, svcName, nil)
	sw.startQueue()
	return sw, svc
}

func newPair(nameA, nameB string, opts []PairOption) (*Endpoint, *Endpoint) {
	cfg := pairConfig{clk: clock.System(), seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	a := newEndpoint(nameA, cfg.clk, cfg.a2b, cfg.seed)
	b := newEndpoint(nameB, cfg.clk, cfg.b2a, cfg.seed+1)
	a.peer, b.peer = b, a
	return a, b
}

// startQueue puts a wire behind e's transmit side. Without one (ring nil),
// Send and SendBatch run the peer's receiver themselves.
func (e *Endpoint) startQueue() {
	if e.link.QueueLen == 0 {
		e.link.QueueLen = defaultQueueLen
	}
	e.ring = newFrameRing(e.link.QueueLen)
	go e.deliverLoop()
}

func newEndpoint(name string, clk clock.Clock, link LinkParams, seed int64) *Endpoint {
	if link.MTU == 0 {
		link.MTU = DefaultMTU
	}
	e := &Endpoint{
		name: name,
		clk:  clk,
		link: link,
		rng:  rand.New(rand.NewSource(seed)),
		done: make(chan struct{}),
	}
	return e
}

// Name returns the endpoint's interface name.
func (e *Endpoint) Name() string { return e.name }

// SetReceiver installs a non-nil fn to be invoked for each frame arriving
// at this endpoint: a batch receiver looping over the batch. The frame
// slice is owned by the receiver.
func (e *Endpoint) SetReceiver(fn func(frame []byte)) {
	e.SetBatchReceiver(func(frames [][]byte) {
		for _, f := range frames {
			fn(f)
		}
	})
}

// SetBatchReceiver installs the endpoint's receiver, invoked with each batch
// of arriving frames (nil removes it). The frames — and the batch slice
// itself — are only valid for the duration of the call; the receiver owns
// the frame buffers but must not retain the slice. A shaped link delivers
// its frames one at a time, each as a batch of one, since each carries its
// own serialization and propagation cost.
func (e *Endpoint) SetBatchReceiver(fn func(frames [][]byte)) { e.recv.Store(&fn) }

// admit is the transmit prologue Send and SendBatch share: it applies the
// MTU and the loss model to one frame, counting and recycling a frame that
// does not make it onto the link. A frame lost on the wire is not an error
// the sender hears about.
func (e *Endpoint) admit(frame []byte) (ok bool, err error) {
	if len(frame) > e.link.MTU {
		err = ErrFrameTooBig
	} else if p := e.link.LossProb; p > 0 {
		e.rngM.Lock()
		ok = e.rng.Float64() >= p
		e.rngM.Unlock()
	} else {
		return true, nil
	}
	if !ok {
		e.drops.Add(1)
		packet.ReturnFrame(frame)
	}
	return ok, err
}

// Send transmits a frame toward the peer, transferring ownership of the
// buffer. It never blocks: when the transmit queue is full the frame is
// dropped (tail-drop), as a real qdisc would. Dropped pooled buffers are
// recycled.
func (e *Endpoint) Send(frame []byte) error {
	if e.closed.Load() != 0 {
		packet.ReturnFrame(frame)
		return ErrClosed
	}
	if e.peer == nil {
		packet.ReturnFrame(frame)
		return ErrNoPeer
	}
	if ok, err := e.admit(frame); !ok {
		return err
	}
	n := uint64(len(frame))
	switch {
	case e.ring == nil:
		e.txFrames.Add(1)
		e.txBytes.Add(n)
		e.peer.deliver([][]byte{frame})
	case e.ring.push(frame):
		e.txFrames.Add(1)
		e.txBytes.Add(n)
	default:
		e.drops.Add(1)
		packet.ReturnFrame(frame)
	}
	return nil
}

// SendBatch transmits a batch of frames, applying the same per-frame link
// model as Send but paying the queue lock and the counters once. Ownership
// of every buffer transfers to the endpoint. It returns the number of
// frames accepted onto the link.
func (e *Endpoint) SendBatch(frames [][]byte) int {
	if e.closed.Load() != 0 || e.peer == nil {
		packet.ReturnFrames(frames)
		return 0
	}
	// Apply MTU and loss per frame, compacting survivors in place so the
	// ring sees one contiguous push.
	kept := frames[:0]
	for _, f := range frames {
		if ok, _ := e.admit(f); ok {
			kept = append(kept, f)
		}
	}
	sent := kept
	if e.ring != nil {
		sent = kept[:e.ring.pushBatch(kept)]
		for _, f := range kept[len(sent):] {
			e.drops.Add(1)
			packet.ReturnFrame(f)
		}
	}
	e.txFrames.Add(uint64(len(sent)))
	e.txBytes.Add(frameBytes(sent))
	if e.ring == nil && len(sent) > 0 {
		e.peer.deliver(sent)
	}
	return len(sent)
}

func frameBytes(frames [][]byte) (n uint64) {
	for _, f := range frames {
		n += uint64(len(f))
	}
	return n
}

// deliverLoop applies serialization and propagation delay, then hands
// frames to the peer's receiver — a whole popped batch at a time when the
// link is unshaped, one frame at a time otherwise.
func (e *Endpoint) deliverLoop() {
	scratch := make([][]byte, 0, deliverBatchSize)
	shaped := e.link.RateBps > 0 || e.link.Delay > 0
	for {
		batch := e.ring.popBatch(scratch)
		if len(batch) == 0 {
			select {
			case <-e.done:
				return
			case <-e.ring.wait():
				continue
			}
		}
		if !shaped {
			e.peer.deliver(batch)
			continue
		}
		// Shaped links price each frame individually; batching must not
		// change when a frame crosses the wire.
		for i, frame := range batch {
			if e.link.RateBps > 0 {
				ser := time.Duration(int64(len(frame)) * 8 * int64(time.Second) / e.link.RateBps)
				e.clk.Sleep(ser)
			}
			if e.link.Delay > 0 {
				e.clk.Sleep(e.link.Delay)
			}
			e.peer.deliver(batch[i : i+1])
		}
	}
}

// deliver hands a batch that crossed the link to this endpoint's receiver.
// A closed endpoint, or one nobody listens on, recycles the buffers.
func (e *Endpoint) deliver(batch [][]byte) {
	if e.closed.Load() != 0 {
		packet.ReturnFrames(batch)
		return
	}
	e.rxFrames.Add(uint64(len(batch)))
	e.rxBytes.Add(frameBytes(batch))
	if fn := e.recv.Load(); fn != nil && *fn != nil {
		(*fn)(batch)
	} else {
		packet.ReturnFrames(batch)
	}
}

// Close stops delivery on both directions of the pair.
func (e *Endpoint) Close() {
	for _, ep := range []*Endpoint{e, e.peer} {
		if ep != nil && ep.closed.Swap(2) != 2 {
			close(ep.done)
		}
	}
}

// Drain closes e for sending — a later Send or SendBatch fails with
// ErrClosed, as a radio that has left its cell — and returns once every
// frame already on e's wire has been handed to the peer. The pair stays up
// until Close, so a link torn down after Drain loses nothing that was sent
// before it.
func (e *Endpoint) Drain() {
	e.closed.CompareAndSwap(0, 1)
	for e.ring != nil && e.peer.closed.Load() == 0 && e.peer.rxFrames.Load() < e.txFrames.Load() {
		runtime.Gosched()
	}
}

// Stats is a snapshot of endpoint counters.
type Stats struct {
	Name               string
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	Drops              uint64
}

// Stats returns the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		Name:     e.name,
		TxFrames: e.txFrames.Load(),
		RxFrames: e.rxFrames.Load(),
		TxBytes:  e.txBytes.Load(),
		RxBytes:  e.rxBytes.Load(),
		Drops:    e.drops.Load(),
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%s: tx=%d/%dB rx=%d/%dB drop=%d",
		s.Name, s.TxFrames, s.TxBytes, s.RxFrames, s.RxBytes, s.Drops)
}

// Peer returns the other end of the pair.
func (e *Endpoint) Peer() *Endpoint { return e.peer }
