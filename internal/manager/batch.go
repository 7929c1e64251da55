// Per-agent steering group commit. When a storm of offloaded clients lands
// on one station, every handoff wants to install a detour rule on the same
// agent; issuing them as individual MethodSteer calls serialises N wire
// round-trips behind the peer's write lock. Instead, concurrent steer
// requests for one agent coalesce: the first caller becomes the flusher
// and drains whatever accumulated while the previous batch was on the
// wire — one MethodSteerBatch call installs all of it.
package manager

import (
	"gnf/internal/agent"
	"gnf/internal/trace"
)

// steerReq is one caller's pending steering update; done (buffered 1)
// receives the batch's outcome.
type steerReq struct {
	spec agent.SteerSpec
	done chan error
}

// steer installs a steering detour on this agent, group-committing with
// concurrent callers. A batch of one degrades to a plain MethodSteer call
// under the flusher's own trace, so single-handoff behaviour is unaffected.
func (h *AgentHandle) steer(tctx trace.Context, spec agent.SteerSpec) error {
	req := steerReq{spec: spec, done: make(chan error, 1)}
	h.steerMu.Lock()
	h.steerPending = append(h.steerPending, req)
	if h.steerFlushing {
		// A flusher is already draining; it will pick this request up in
		// its next batch.
		h.steerMu.Unlock()
		return <-req.done
	}
	h.steerFlushing = true
	for len(h.steerPending) > 0 {
		batch := h.steerPending
		h.steerPending = nil
		h.steerMu.Unlock()
		var err error
		if len(batch) == 1 {
			err = h.callT(tctx, agent.MethodSteer, batch[0].spec, nil)
		} else {
			rules := make([]agent.SteerSpec, len(batch))
			for i, r := range batch {
				rules[i] = r.spec
			}
			err = h.call(agent.MethodSteerBatch, agent.SteerBatchSpec{Rules: rules}, nil)
		}
		for _, r := range batch {
			r.done <- err
		}
		h.steerMu.Lock()
	}
	h.steerFlushing = false
	h.steerMu.Unlock()
	return <-req.done
}
