// The handoff worker pool: bounded admission control for the roaming
// pipeline. applyClientEvent used to spawn one goroutine per handoff —
// fine for a demo, fatal in a handoff storm, where 10k concurrent
// reconciles all convoy on the manager's lock and all hammer the same
// target agent with concurrent Deploys. The pool replaces that with:
//
//   - a fixed worker set (WithHandoffWorkers) draining a FIFO queue;
//   - a per-target-station concurrency limit (WithStationConcurrency), so
//     a storm landing on one station queues instead of flooding its agent
//     — skipped claims are counted as that station's saturation signal;
//   - coalescing: a handoff for a client whose previous handoff is still
//     queued (unclaimed) supersedes it in place. The stale reconcile never
//     runs — its span ends, a storm-coalesced event is journaled, and the
//     queue keeps one task per client at its original FIFO position.
//
// The pool is also the manager's drain barrier: enqueue happens
// synchronously inside applyClientEvent (before the agent's event call
// returns), so WaitIdle's "queue empty and nothing running" condition can
// never miss a handoff — the undefined Add-racing-Wait pattern of the old
// WaitGroup is gone by construction.
package manager

import (
	"sync"

	"gnf/internal/trace"
)

// Pool defaults: workers bounds global reconcile concurrency, stationLimit
// bounds concurrent migrations targeting one station.
const (
	defaultHandoffWorkers     = 16
	defaultStationConcurrency = 16
)

// handoffLatencyBucketsMs buckets the enqueue-to-completion latency of one
// handoff (milliseconds on the manager clock — virtual in sims).
var handoffLatencyBucketsMs = []float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// handoffTask is one queued client handoff.
type handoffTask struct {
	client   string
	rec      *clientRec
	station  string // target station, the concurrency-limit key
	sp       *trace.Span
	tctx     trace.Context
	enqueued int64 // manager-clock nanos at enqueue, for the latency histogram
}

// handoffPool runs queued handoffs on a bounded worker set.
type handoffPool struct {
	m       *Manager
	workers int
	limit   int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*handoffTask
	queued   map[string]*handoffTask // client -> its unclaimed task
	inflight map[string]int          // target station -> running count
	running  int
	tracked  int // non-handoff async work (goTracked)
	closed   bool
	wg       sync.WaitGroup
}

func newHandoffPool(m *Manager, workers, limit int) *handoffPool {
	if workers < 1 {
		workers = defaultHandoffWorkers
	}
	if limit < 1 {
		limit = defaultStationConcurrency
	}
	p := &handoffPool{
		m:        m,
		workers:  workers,
		limit:    limit,
		queued:   make(map[string]*handoffTask),
		inflight: make(map[string]int),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// enqueue admits one handoff, coalescing it onto the client's still-queued
// predecessor when one exists. Called synchronously from applyClientEvent.
func (p *handoffPool) enqueue(t *handoffTask) {
	t.enqueued = p.m.clk.Now().UnixNano()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t.sp.End(nil)
		return
	}
	if old, ok := p.queued[t.client]; ok {
		// Supersede in place: the old task's reconcile never runs. Keeping
		// the FIFO slot (rather than re-appending) preserves fairness — a
		// client flapping between stations cannot starve behind the storm.
		oldSp, oldStation := old.sp, old.station
		old.station = t.station
		old.sp, old.tctx = t.sp, t.tctx
		p.mu.Unlock()
		oldSp.End(nil)
		p.m.metrics.Counter("handoff.coalesced").Inc()
		p.m.journal.Append(trace.Event{
			Type: trace.EventStormCoalesced, Subject: t.client, Station: t.station,
			Detail: "superseded handoff to " + oldStation,
		})
		return
	}
	p.queue = append(p.queue, t)
	p.queued[t.client] = t
	p.m.metrics.Gauge("handoff.queue_depth").Set(int64(len(p.queue)))
	p.cond.Broadcast()
	p.mu.Unlock()
}

// claim pops the first queued task whose target station is under its
// concurrency limit, blocking until one exists. It returns nil when the
// pool is closed and the queue drained.
func (p *handoffPool) claim() *handoffTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for i, t := range p.queue {
			if p.inflight[t.station] >= p.limit {
				p.m.metrics.Counter("handoff.station_saturated." + t.station).Inc()
				continue
			}
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			delete(p.queued, t.client)
			p.running++
			p.inflight[t.station]++
			p.m.metrics.Gauge("handoff.queue_depth").Set(int64(len(p.queue)))
			p.m.metrics.Gauge("handoff.inflight").Set(int64(p.running))
			return t
		}
		if p.closed && len(p.queue) == 0 {
			return nil
		}
		p.cond.Wait()
	}
}

// worker drains the queue until close. RPC failures inside a reconcile are
// that migration's problem (reported per chain); the worker always
// completes the task.
func (p *handoffPool) worker() {
	defer p.wg.Done()
	for {
		t := p.claim()
		if t == nil {
			return
		}
		p.m.reconcileClient(t.client, t.rec, t.tctx)
		t.sp.End(nil)
		p.m.metrics.Histogram("handoff.latency_ms", handoffLatencyBucketsMs...).
			Observe(float64(p.m.clk.Now().UnixNano()-t.enqueued) / 1e6)
		p.mu.Lock()
		p.running--
		if p.inflight[t.station]--; p.inflight[t.station] <= 0 {
			delete(p.inflight, t.station)
		}
		p.m.metrics.Gauge("handoff.inflight").Set(int64(p.running))
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// goTracked runs fn asynchronously under the pool's drain barrier — the
// non-handoff background work (rejoin GC, connection-loss failover) that
// WaitIdle and Close must also observe. After close it runs fn inline:
// the caller (a peer teardown hook) must still converge, and the barrier
// is already draining.
func (p *handoffPool) goTracked(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fn()
		return
	}
	p.tracked++
	p.mu.Unlock()
	go func() {
		defer func() {
			p.mu.Lock()
			p.tracked--
			p.cond.Broadcast()
			p.mu.Unlock()
		}()
		fn()
	}()
}

// waitIdle blocks until no handoff is queued or running and no tracked
// background work is in flight.
func (p *handoffPool) waitIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) > 0 || p.running > 0 || p.tracked > 0 {
		p.cond.Wait()
	}
}

// close drains the queue (workers finish every admitted task — their RPCs
// fail fast once the server is down) and waits for workers and tracked
// goroutines to exit.
func (p *handoffPool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	for p.tracked > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}
