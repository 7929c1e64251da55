package agent

import (
	"encoding/json"
	"sync"
	"time"

	"gnf/internal/topology"
	"gnf/internal/trace"
	"gnf/internal/wire"
)

// Link is the agent's connection to the Manager: it serves the agent.*
// RPC methods and pushes registration, periodic reports, client events and
// NF alerts upward.
type Link struct {
	agent *Agent
	peer  *wire.Peer

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

// Connect dials the manager, registers this agent and starts the
// reporting loop. interval <= 0 uses the 1s default.
func Connect(a *Agent, managerAddr string, interval time.Duration) (*Link, error) {
	peer, err := wire.Dial(managerAddr)
	if err != nil {
		return nil, err
	}
	l := &Link{agent: a, peer: peer, stop: make(chan struct{}), done: make(chan struct{})}
	l.installHandlers()
	go peer.Run()

	if err := peer.Call(MethodRegister, RegisterSpec{
		Station:     string(a.Station()),
		MemoryBytes: a.Runtime().Capacity(),
		Cloud:       a.Cloud(),
		Chains:      a.Chains(),
	}, nil); err != nil {
		peer.Close()
		return nil, err
	}
	// NF alerts relay as fire-and-forget notifications; client events ride
	// a synchronous call so the handoff path only continues once the
	// manager has recorded the (dis)connection — §3's notification with
	// delivery-order guarantees, which roaming correctness depends on.
	a.OnAlert(func(al Alert) { peer.Notify(MethodNFAlert, al) })
	a.OnClientEvent(func(ev ClientEvent) { peer.Call(MethodClientEvent, ev, nil) })

	if interval <= 0 {
		interval = reportEvery
	}
	go l.reportLoop(interval)
	peer.OnClose(func(error) { l.Close() })
	return l, nil
}

// Peer exposes the underlying wire peer (tests).
func (l *Link) Peer() *wire.Peer { return l.peer }

// Close stops reporting and closes the connection.
func (l *Link) Close() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	close(l.stop)
	l.mu.Unlock()
	l.peer.Close()
	<-l.done
}

func (l *Link) reportLoop(interval time.Duration) {
	defer close(l.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.peer.Notify(MethodReport, l.agent.Report())
		}
	}
}

// flushSpans ships the agent's buffered spans up to the manager. Traced
// handlers call it synchronously before returning their response, so by the
// time the manager's traced call completes, every span the agent produced
// for it is already in the manager's store — no eventual-consistency window
// for scenario assertions (or operators) to race against. Safe from inside
// a handler because wire handlers run on their own goroutines.
func (l *Link) flushSpans() {
	batch := l.agent.Tracer().Drain()
	if len(batch) == 0 {
		return
	}
	l.peer.Call(MethodSpans, SpanBatch{Station: string(l.agent.Station()), Spans: batch}, nil)
}

// installHandlers exposes the agent's local API over the wire. Every
// handler is wrapped in trace propagation: an empty trace header costs
// nothing, a valid one opens a child span under the caller's trace, and a
// corrupt/foreign one degrades to a fresh root span rather than an error.
func (l *Link) installHandlers() {
	a := l.agent
	tracedBlob := func(method string, h func(trace.Context, json.RawMessage, []byte) (any, error)) {
		l.peer.HandleBlob(method, func(hdr string, body json.RawMessage, blob []byte) (any, error) {
			if hdr == "" {
				return h(trace.Context{}, body, blob)
			}
			parent, _ := trace.ParseHeader(hdr) // garbage parses to a zero Context → fresh root
			sp := a.Tracer().StartSpan(parent, method)
			out, err := h(sp.Context(), body, blob)
			sp.End(err)
			l.flushSpans()
			return out, err
		})
	}
	traced := func(method string, h func(trace.Context, json.RawMessage) (any, error)) {
		tracedBlob(method, func(tctx trace.Context, body json.RawMessage, _ []byte) (any, error) {
			return h(tctx, body)
		})
	}
	traced(MethodPing, func(_ trace.Context, _ json.RawMessage) (any, error) {
		return map[string]string{"station": string(a.Station())}, nil
	})
	traced(MethodDeploy, func(_ trace.Context, body json.RawMessage) (any, error) {
		var spec DeploySpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		return a.Deploy(spec)
	})
	traced(MethodRemove, func(_ trace.Context, body json.RawMessage) (any, error) {
		var ref ChainRef
		if err := json.Unmarshal(body, &ref); err != nil {
			return nil, err
		}
		return nil, a.Remove(ref.Chain)
	})
	// A move's last export rides Enable's raw section: the target imports it,
	// then goes live.
	tracedBlob(MethodEnable, func(tctx trace.Context, body json.RawMessage, state []byte) (any, error) {
		var spec RestoreSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		if len(state) > 0 {
			if err := a.Restore(spec.Chain, state); err != nil {
				return nil, err
			}
		}
		return a.enable(tctx, spec.Chain)
	})
	traced(MethodDisable, func(_ trace.Context, body json.RawMessage) (any, error) {
		var ref ChainRef
		if err := json.Unmarshal(body, &ref); err != nil {
			return nil, err
		}
		return nil, a.Disable(ref.Chain)
	})
	// A freezing checkpoint stops the chain, then exports what is left.
	traced(MethodCheckpoint, func(_ trace.Context, body json.RawMessage) (any, error) {
		var spec CheckpointSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		if spec.Freeze {
			stop := a.Disable
			if spec.Brownout {
				stop = a.Freeze
			}
			if err := stop(spec.Chain); err != nil {
				return nil, err
			}
		}
		return a.PreCopy(spec.Chain, spec.Restart)
	})
	tracedBlob(MethodRestore, func(_ trace.Context, body json.RawMessage, state []byte) (any, error) {
		var spec RestoreSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		return nil, a.Restore(spec.Chain, state)
	})
	traced(MethodStats, func(_ trace.Context, _ json.RawMessage) (any, error) {
		return a.Report(), nil
	})
	traced(MethodSteer, func(_ trace.Context, body json.RawMessage) (any, error) {
		var spec SteerSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		return nil, a.Steer(topology.ClientID(spec.Client), topology.StationID(spec.Via))
	})
	traced(MethodSteerBatch, func(_ trace.Context, body json.RawMessage) (any, error) {
		var spec SteerBatchSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		for _, r := range spec.Rules {
			if err := a.Steer(topology.ClientID(r.Client), topology.StationID(r.Via)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	traced(MethodUnsteer, func(_ trace.Context, body json.RawMessage) (any, error) {
		var spec UnsteerSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		return nil, a.ClearSteer(topology.ClientID(spec.Client))
	})
	traced(MethodScalePool, func(_ trace.Context, body json.RawMessage) (any, error) {
		var spec ScalePoolSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		return nil, a.ScalePool(spec.Kinds, spec.ConfigHash, spec.Replicas)
	})
	traced(MethodRetarget, func(_ trace.Context, body json.RawMessage) (any, error) {
		var spec RetargetSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		return nil, a.Retarget(spec.Chain, spec.Ingress, spec.Egress)
	})
}
