// Package trace implements GNF's control-plane observability substrate:
// virtual-clock-aware distributed tracing plus a causally-ordered event
// journal. A trace.Context (trace ID, span ID, sampled flag) propagates
// through wire RPC metadata, so one client handoff — manager decision,
// pre-copy rounds, delta sync, activation, steering flip, brownout replay —
// yields a single span tree whose per-span durations are measured on
// whatever clock the system runs (virtual in sims, wall in deployments).
//
// Spans are recorded into a bounded in-memory store on the manager;
// agent-side spans are buffered and flushed back to the manager over the
// same wire connection that carried the traced request, so the tree is
// complete by the time the traced call returns.
package trace

import "strings"

// Context identifies a position in one trace: the trace it belongs to and
// the span that is the parent of any work started under it. The zero
// Context is "not tracing" — spans started from it become new roots.
type Context struct {
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	Sampled bool   `json:"sampled,omitempty"`
}

// Valid reports whether the context names a real position in a trace.
func (c Context) Valid() bool { return c.TraceID != "" && c.SpanID != "" }

// Recording reports whether work under this context should produce spans.
func (c Context) Recording() bool { return c.Valid() && c.Sampled }

// Header serialises the context for wire RPC metadata. Unsampled or
// invalid contexts serialise to "" — the absence of a header is the
// zero-overhead representation of "not tracing".
func (c Context) Header() string {
	if !c.Recording() {
		return ""
	}
	return c.TraceID + "-" + c.SpanID + "-1"
}

// ParseHeader decodes a wire trace header. It is deliberately tolerant:
// any malformed, truncated or foreign header yields (Context{}, false),
// and the receiver degrades to starting a fresh root span — a bad header
// must never fail the RPC it rode in on.
func ParseHeader(h string) (Context, bool) {
	if h == "" {
		return Context{}, false
	}
	parts := strings.Split(h, "-")
	if len(parts) != 3 || parts[2] != "1" {
		return Context{}, false
	}
	if !validID(parts[0]) || !validID(parts[1]) {
		return Context{}, false
	}
	return Context{TraceID: parts[0], SpanID: parts[1], Sampled: true}, true
}

// validID accepts lower-case hex strings of plausible ID length.
func validID(s string) bool {
	if len(s) < 8 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// originTag folds an origin name into a 16-bit hex prefix so IDs minted by
// different tracers (the manager, each station) cannot collide even though
// every tracer numbers its IDs from a deterministic counter.
func originTag(origin string) uint16 {
	var h uint16 = 0x9dc5
	for i := 0; i < len(origin); i++ {
		h ^= uint16(origin[i])
		h *= 0x0193
	}
	return h
}

// formatID renders an ID as 16 lower-case hex digits: the origin tag's 4,
// then the low 48 bits of the counter.
func formatID(tag uint16, n uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	v := uint64(tag)<<48 | n&(1<<48-1)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}
