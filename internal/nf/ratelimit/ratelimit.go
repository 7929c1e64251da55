// Package ratelimit implements a token-bucket rate limiter NF, GNF's
// equivalent of attaching a `tc` policer to a client's traffic. The bucket
// refills on the injected clock, so virtual-time simulations shape traffic
// deterministically.
package ratelimit

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"gnf/internal/clock"
	"gnf/internal/nf"
	"gnf/internal/packet"
)

// Limiter polices frame bytes against a token bucket.
type Limiter struct {
	name    string
	rateBps int64 // tokens added per second, in bits
	burst   int64 // bucket depth in bytes
	dir     nf.Direction
	both    bool

	mu     sync.Mutex
	clk    clock.Clock
	tokens float64 // bytes available
	last   time.Time

	passed, policed uint64
	passedBytes     uint64
}

// New creates a limiter enforcing rateBps with the given burst (bytes).
// It polices both directions unless restricted with Direction.
func New(name string, rateBps, burstBytes int64) *Limiter {
	l := &Limiter{
		name:    name,
		rateBps: rateBps,
		burst:   burstBytes,
		both:    true,
		clk:     clock.System(),
		tokens:  float64(burstBytes),
	}
	l.last = l.clk.Now()
	return l
}

// Direction restricts policing to one direction; the other passes freely.
func (l *Limiter) Direction(d nf.Direction) *Limiter {
	l.mu.Lock()
	l.dir, l.both = d, false
	l.mu.Unlock()
	return l
}

// SetClock implements nf.ClockSetter.
func (l *Limiter) SetClock(c clock.Clock) {
	l.mu.Lock()
	l.clk = c
	l.last = c.Now()
	l.tokens = float64(l.burst)
	l.mu.Unlock()
}

// Name implements nf.Function.
func (l *Limiter) Name() string { return l.name }

// Kind implements nf.Function.
func (l *Limiter) Kind() string { return "ratelimit" }

// Process implements nf.Function.
func (l *Limiter) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(l, dir, frame)
}

// ProcessBatch implements nf.Function: one lock acquisition, one
// clock reading and one refill per batch, then each frame is charged;
// policed frames are recycled into the frame pool.
func (l *Limiter) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.both && dir != l.dir {
		out.Forward = append(out.Forward, frames...)
		return
	}
	now := l.clk.Now()
	if elapsed := now.Sub(l.last).Seconds(); elapsed > 0 {
		l.tokens += elapsed * float64(l.rateBps) / 8
		if l.tokens > float64(l.burst) {
			l.tokens = float64(l.burst)
		}
		l.last = now
	}
	for _, frame := range frames {
		need := float64(len(frame))
		if l.tokens < need {
			l.policed++
			packet.ReturnFrame(frame)
			continue
		}
		l.tokens -= need
		l.passed++
		l.passedBytes += uint64(len(frame))
		out.Forward = append(out.Forward, frame)
	}
}

// NFStats implements nf.StatsReporter.
func (l *Limiter) NFStats() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return map[string]uint64{
		"passed":       l.passed,
		"passed_bytes": l.passedBytes,
		"policed":      l.policed,
	}
}

func init() {
	nf.Default.RegisterKind("ratelimit", nf.KindInfo{Shareable: true}, func(name string, params nf.Params) (nf.Function, error) {
		rate, err := strconv.ParseInt(params.Get("rate_bps", "1000000"), 10, 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("ratelimit: bad rate_bps %q", params["rate_bps"])
		}
		burst, err := strconv.ParseInt(params.Get("burst_bytes", "15000"), 10, 64)
		if err != nil || burst <= 0 {
			return nil, fmt.Errorf("ratelimit: bad burst_bytes %q", params["burst_bytes"])
		}
		l := New(name, rate, burst)
		switch params.Get("direction", "both") {
		case "both":
		case "out":
			l.Direction(nf.Outbound)
		case "in":
			l.Direction(nf.Inbound)
		default:
			return nil, fmt.Errorf("ratelimit: bad direction %q", params["direction"])
		}
		return l, nil
	})
}
