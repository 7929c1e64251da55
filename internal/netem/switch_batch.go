package netem

import (
	"sync"

	"gnf/internal/packet"
)

// The forwarding pipeline. A batch arriving on one port (a frame is a batch
// of one) is walked frame by frame, but consecutive frames of the same flow
// — a "run", detected by packet.Run without parsing — reuse the previous
// steering verdict: one parse and one flow-cache probe per run instead of
// per frame. The FDB learn and lookup are keyed by MAC, not by flow, so
// they are paid once per batch for each source and destination MAC the
// batch carries. Output frames are coalesced into per-destination-port
// sub-batches so the egress link is also paid once per run, not once per
// frame.

// portDispatch collects the frames of one batch bound for one egress port.
type portDispatch struct {
	port   *swPort
	frames [][]byte
}

// dispatchBatch is the pooled per-batch scratch: the batch's parser and its
// destination sub-batches. A batch rarely touches more than a handful of
// ports, so destination lookup is a short linear scan.
type dispatchBatch struct {
	parser packet.Parser
	dests  []portDispatch
}

var dispatchPool = sync.Pool{New: func() any { return new(dispatchBatch) }}

func (d *dispatchBatch) add(p *swPort, f []byte) {
	for i := range d.dests {
		if d.dests[i].port == p {
			d.dests[i].frames = append(d.dests[i].frames, f)
			return
		}
	}
	if n := len(d.dests); n < cap(d.dests) {
		// Reclaim a previously used entry so its frames backing array is
		// reused across batches.
		d.dests = d.dests[:n+1]
		e := &d.dests[n]
		e.port = p
		e.frames = append(e.frames[:0], f)
		return
	}
	d.dests = append(d.dests, portDispatch{port: p, frames: append(make([][]byte, 0, deliverBatchSize), f)})
}

// flush sends every sub-batch and clears frame references so delivered
// buffers are not pinned past the batch.
func (d *dispatchBatch) flush() {
	for i := range d.dests {
		e := &d.dests[i]
		if e.port != nil && len(e.frames) > 0 {
			e.port.ep.SendBatch(e.frames)
		}
		for j := range e.frames {
			e.frames[j] = nil
		}
		e.frames = e.frames[:0]
		e.port = nil
	}
	d.dests = d.dests[:0]
}

// inputBatch is the forwarding pipeline: one snapshot load, sharded-FDB
// learning, a cached (or scanned-and-cached) steering verdict, then
// dispatch — for every frame of a batch arriving on one port, lock-free
// against the control plane. What does not depend on the frame is paid once
// per batch (rx counters up front, every other counter at the end), once
// per run (parse, verdict) or once per MAC (FDB learn and lookup).
//
// No memo outlives what it was computed from. Every frame re-loads the
// snapshot pointer (rules, ports, pins, groups) and, when it learns or
// forwards by MAC, the FDB generation — an atomic load each: a rule
// installed or a MAC learned anywhere mid-batch re-resolves the very next
// frame. A new per-frame input to forwarding must bump one of the two or
// be re-read per frame.
func (s *Switch) inputBatch(in PortID, frames [][]byte) {
	d := dispatchPool.Get().(*dispatchBatch)
	defer dispatchPool.Put(d)
	p := &d.parser

	n := uint64(len(frames))
	rxBase := s.rxFrames.Add(uint(in), n) - n // frame i is the stripe's rxBase+i+1-th
	s.batchFrames.Add(uint(in), n)
	var hits, misses, redirects, runs, dropped, flooded uint64

	var (
		st        *swState
		inService bool

		run       packet.Run
		runAction Action
		runOut    PortID
		runDst    packet.MAC
		// The normal-forwarding port of fwdDst, good while the FDB generation
		// reads fwdGen; 0 (the table starts at 1) means no memo.
		fwd    *swPort
		fwdDst packet.MAC
		fwdGen uint64
		// learnSrc was learned on in (or found pinned) while the FDB
		// generation read learnGen; 0 means no memo.
		learnSrc packet.MAC
		learnGen uint64
	)

	sampler := s.sampler.Load()
	for i, frame := range frames {
		if cur := s.state.Load(); cur != st {
			// First frame, or a control-plane mutation mid-batch: resolve
			// everything against the new snapshot.
			st = cur
			sp := st.ports[in]
			inService = sp != nil && sp.service
			run.Reset()
			fwdGen, learnGen = 0, 0
		}

		if run.Continues(frame) {
			// A run reuse is a verdict served without a rule scan — the
			// same event CacheHits counts, minus even the table probe.
			hits++
		} else {
			if err := p.Parse(frame); err != nil {
				dropped++
				packet.ReturnFrame(frame)
				continue
			}
			// Learn source MAC (unicast sources only); frames emerging from
			// service ports carry end-host MACs and must not repoint the
			// FDB, and pinned (associated-client) entries never move. The
			// generation is read before the learn it stamps: a learn that
			// changes the entry moves it, and the next frame learns again.
			if !inService && !p.Eth.Src.IsMulticast() && !p.Eth.Src.IsZero() {
				if g := s.fdb.gen.Load(); g != learnGen || p.Eth.Src != learnSrc {
					if _, pin := st.pinned[p.Eth.Src]; !pin {
						s.fdb.learn(p.Eth.Src, in)
					}
					learnSrc, learnGen = p.Eth.Src, g
				}
			}
			var hit bool
			runAction, runOut, hit = s.steer(in, p, st)
			if hit {
				hits++
			} else {
				misses++
			}
			runDst = p.Eth.Dst
			if run.Start(frame) {
				runs++
			}
		}
		if sampler != nil {
			sampler.observe(in, rxBase+uint64(i)+1, runAction, runOut)
		}

		var dst *swPort
		switch runAction {
		case ActionDrop:
		case ActionRedirect:
			redirects++
			dst = st.ports[runOut]
		default:
			// Normal forwarding. The generation is read before the lookup
			// it stamps.
			if g := s.fdb.gen.Load(); g != fwdGen || runDst != fwdDst {
				fwd, fwdDst, fwdGen = nil, runDst, g
				if !runDst.IsMulticast() {
					if port, ok := s.lookupFDB(st, runDst); ok {
						fwd = st.ports[port]
					}
				}
			}
			if dst = fwd; dst == nil {
				// Flood. Flush batched unicast first: a clone sent now must
				// not overtake an earlier frame to the same port still
				// sitting in the scratch, or per-port FIFO order would break.
				d.flush()
				flooded++
				for _, sp := range st.flood {
					if sp.id != in {
						sp.ep.Send(packet.Clone(frame))
					}
				}
				packet.ReturnFrame(frame)
				continue
			}
			if dst.id == in {
				dst = nil // hairpin suppressed: the host already has the frame
			}
		}
		if dst == nil {
			dropped++
			packet.ReturnFrame(frame)
			continue
		}
		d.add(dst, frame)
	}
	d.flush()
	s.cacheHits.Add(uint(in), hits)
	s.cacheMisses.Add(uint(in), misses)
	s.redirects.Add(uint(in), redirects)
	s.batchRuns.Add(uint(in), runs)
	s.dropped.Add(uint(in), dropped)
	s.flooded.Add(uint(in), flooded)
}

// Inject runs the forwarding pipeline for one frame on the caller's
// goroutine, as if it had arrived on port in: a batch of one, on the
// caller's stack. Ownership of the buffer transfers to the switch.
func (s *Switch) Inject(in PortID, frame []byte) {
	one := [1][]byte{frame}
	s.inputBatch(in, one[:])
}

// InjectBatch is Inject for a whole batch. The batch slice is the caller's
// again after return; the frames are not.
func (s *Switch) InjectBatch(in PortID, frames [][]byte) { s.inputBatch(in, frames) }
