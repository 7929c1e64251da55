package trace

import (
	"sync"
	"time"

	"gnf/internal/clock"
)

// Event types the journal records. The journal unifies what used to be
// ad-hoc per-subsystem histories: attach/detach, migrations, autoscaler
// decisions, reconcile passes, failovers, client (dis)connections and NF
// notifications all land here with trace links.
const (
	EventAttach    = "attach"
	EventDetach    = "detach"
	EventMigrate   = "migrate"
	EventScale     = "scale"
	EventReconcile = "reconcile"
	EventFailover  = "failover"
	EventClient    = "client"
	EventNotify    = "notify"
	EventSchedule  = "schedule"
	EventOffload   = "offload"
	// EventDetour records a live handoff pointing the roamed client's
	// traffic back at its still-running source chain (or failing to, Err
	// set: the handoff then runs un-detoured).
	EventDetour = "detour"
	// EventStormCoalesced records a superseded handoff collapsed in the
	// manager's handoff queue before reaching a worker: the client handed
	// off again while its previous reconcile was still queued.
	EventStormCoalesced = "storm-coalesced"
)

// Event is one journal entry. Seq is assigned at append time under one
// lock, so sequence order is causal order as observed by the manager: if
// event A's append happened-before event B's append, Seq(A) < Seq(B).
type Event struct {
	Seq     uint64    `json:"seq"`
	At      time.Time `json:"at"`
	Type    string    `json:"type"`
	Subject string    `json:"subject,omitempty"` // client, chain or pool the event is about
	Station string    `json:"station,omitempty"`
	TraceID string    `json:"trace_id,omitempty"` // link into the span store
	Detail  string    `json:"detail,omitempty"`
	Err     string    `json:"error,omitempty"`
}

// Journal is a bounded ring of events. Appends never block and never
// fail; when the ring is full the oldest events are evicted (their Seq
// numbers remain burned, so consumers can detect the gap). All methods
// are nil-receiver-safe: a nil *Journal records nothing.
type Journal struct {
	clk  clock.Clock
	mu   sync.Mutex
	ring []Event
	head int // index of oldest
	n    int
	seq  uint64
}

// NewJournal builds a journal holding at most capacity events.
func NewJournal(clk clock.Clock, capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{clk: clk, ring: make([]Event, capacity)}
}

// Append stamps the event with the next sequence number and the journal
// clock (unless At is already set) and stores it, returning the stamped
// event.
func (j *Journal) Append(ev Event) Event {
	if j == nil {
		return ev
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if ev.At.IsZero() {
		ev.At = j.clk.Now()
	}
	idx := (j.head + j.n) % len(j.ring)
	if j.n == len(j.ring) {
		j.ring[j.head] = ev
		j.head = (j.head + 1) % len(j.ring)
	} else {
		j.ring[idx] = ev
		j.n++
	}
	j.mu.Unlock()
	return ev
}

// LastSeq returns the sequence number of the newest event (0 = empty).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Events returns stored events with Seq > after, oldest first, optionally
// filtered to the given types (none = all). The result is a copy.
func (j *Journal) Events(after uint64, types ...string) []Event {
	if j == nil {
		return nil
	}
	want := func(string) bool { return true }
	if len(types) > 0 {
		set := make(map[string]bool, len(types))
		for _, t := range types {
			set[t] = true
		}
		want = func(t string) bool { return set[t] }
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.n; i++ {
		ev := j.ring[(j.head+i)%len(j.ring)]
		if ev.Seq > after && want(ev.Type) {
			out = append(out, ev)
		}
	}
	return out
}
