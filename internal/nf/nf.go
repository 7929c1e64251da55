// Package nf defines the GNF network-function framework: the Function
// interface every vNF implements, service chains, the factory registry the
// Agents instantiate functions from, and the notification types NFs relay
// to the Manager (§3: "individual NFs can relay notifications through their
// local Agent to the Manager").
//
// Functions are inline middleboxes: they receive batches of raw Ethernet
// frames with a direction (outbound = from the client toward the network)
// and append to an Output. Output.Forward frames continue in the batch's
// direction; Output.Reverse frames are sent back the way they came — that
// is how a DNS load balancer or cache answers a query directly at the edge.
// A frame appended to neither is dropped. A single frame is a batch of one.
// Stateful functions additionally implement Stateful, so a migration can
// move their state between stations.
package nf

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gnf/internal/clock"
)

// Direction tells a function which side a frame entered from.
type Direction uint8

// Frame directions through a function.
const (
	// Outbound frames travel client -> network (chain ingress -> egress).
	Outbound Direction = iota
	// Inbound frames travel network -> client (chain egress -> ingress).
	Inbound
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Inbound {
		return "in"
	}
	return "out"
}

// Opposite returns the reversed direction.
func (d Direction) Opposite() Direction {
	if d == Inbound {
		return Outbound
	}
	return Inbound
}

// Function is one virtual network function.
type Function interface {
	// Name returns the instance name (unique within a chain).
	Name() string
	// Kind returns the function type, e.g. "firewall".
	Kind() string
	// ProcessBatch handles a batch of frames travelling dir, appending what
	// it emits to out in order. Implementations may mutate frames in place.
	// Ownership of every input frame transfers to the implementation:
	// frames not appended to out are consumed and should be recycled with
	// packet.ReturnFrame. The frames slice itself remains the caller's.
	ProcessBatch(dir Direction, frames [][]byte, out *Output)
	// Process handles one frame: ProcessOne(fn, dir, frame), always.
	Process(dir Direction, frame []byte) Output
}

// StatsReporter is implemented by functions exposing counters to the UI.
type StatsReporter interface {
	NFStats() map[string]uint64
}

// ClockSetter is implemented by functions that model time (rate limiters,
// caches); the hosting agent injects its clock after construction.
type ClockSetter interface {
	SetClock(clock.Clock)
}

// Severity grades a notification.
type Severity string

// Notification severities.
const (
	SevInfo     Severity = "info"
	SevWarning  Severity = "warning"
	SevCritical Severity = "critical"
)

// Notification is an event an NF reports up through Agent and Manager
// (e.g. "an intrusion attempt or detected malware").
type Notification struct {
	Severity Severity  `json:"severity"`
	NF       string    `json:"nf"`
	Kind     string    `json:"kind"`
	Message  string    `json:"message"`
	At       time.Time `json:"at"`
}

// NotifyFunc receives notifications from a function.
type NotifyFunc func(Notification)

// NotifierSetter is implemented by functions that emit notifications.
type NotifierSetter interface {
	SetNotifier(NotifyFunc)
}

// Params carries string configuration from the Manager to a factory.
type Params map[string]string

// Get returns the named parameter or def when absent.
func (p Params) Get(key, def string) string {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Factory builds a function instance from parameters.
type Factory func(name string, params Params) (Function, error)

// ErrUnknownKind is returned when instantiating an unregistered NF type.
var ErrUnknownKind = errors.New("nf: unknown function kind")

// DefaultVersion is the image tag of kinds registered without an explicit
// version.
const DefaultVersion = "1.0"

// KindInfo carries per-kind metadata alongside the factory.
type KindInfo struct {
	// Version is the kind's released image tag; empty means DefaultVersion.
	// Agents resolve container images as "gnf/<kind>:<version>".
	Version string
	// Shareable marks kinds whose instances hold no per-client state, so
	// one instance may serve every client with an identical configuration
	// (firewall, counter, ratelimit). Stateful kinds like nat must keep
	// per-client instances and leave this false.
	Shareable bool
}

// registration is one kind's factory plus metadata.
type registration struct {
	factory Factory
	info    KindInfo
}

// Registry maps function kinds to factories and their metadata. The
// package-level Default registry is populated by the built-in NF packages'
// init functions.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]registration)}
}

// Default is the process-wide registry that built-in NFs register into.
var Default = NewRegistry()

// Register adds a factory for kind with default metadata (version
// DefaultVersion, not shareable), replacing any previous registration.
func (r *Registry) Register(kind string, f Factory) {
	r.RegisterKind(kind, KindInfo{}, f)
}

// RegisterKind adds a factory for kind with explicit metadata, replacing
// any previous registration.
func (r *Registry) RegisterKind(kind string, info KindInfo, f Factory) {
	if info.Version == "" {
		info.Version = DefaultVersion
	}
	r.mu.Lock()
	r.factories[kind] = registration{factory: f, info: info}
	r.mu.Unlock()
}

// Info returns the metadata registered for kind. Unregistered kinds report
// default metadata and ok=false.
func (r *Registry) Info(kind string) (KindInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.factories[kind]
	if !ok {
		return KindInfo{Version: DefaultVersion}, false
	}
	return reg.info, true
}

// Shareable reports whether kind's instances may be shared across clients.
func (r *Registry) Shareable(kind string) bool {
	info, ok := r.Info(kind)
	return ok && info.Shareable
}

// ImageForKind resolves the repository image for kind from its registered
// version ("gnf/<kind>:<version>"); unregistered kinds resolve against
// DefaultVersion so image naming stays total.
func (r *Registry) ImageForKind(kind string) string {
	info, _ := r.Info(kind)
	return "gnf/" + kind + ":" + info.Version
}

// Kinds lists registered function kinds, sorted.
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for k := range r.factories {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New instantiates a function of the given kind.
func (r *Registry) New(kind, name string, params Params) (Function, error) {
	r.mu.RLock()
	reg, ok := r.factories[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	return reg.factory(name, params)
}

// Chain composes functions into a service chain. Outbound frames traverse
// functions first-to-last; inbound frames last-to-first. Reverse frames
// emitted by a member propagate back through the members the frame already
// passed, in the opposite direction — full middlebox semantics, so an edge
// cache's reply still traverses the firewall in front of it.
type Chain struct {
	name string
	fns  []Function
}

// NewChain builds a chain. An empty chain forwards everything untouched.
func NewChain(name string, fns ...Function) *Chain {
	return &Chain{name: name, fns: fns}
}

// Name returns the chain name.
func (c *Chain) Name() string { return c.name }

// Kind implements Function.
func (c *Chain) Kind() string { return "chain" }

// Functions returns the chain members in outbound order.
func (c *Chain) Functions() []Function { return append([]Function(nil), c.fns...) }

// Len returns the number of functions in the chain.
func (c *Chain) Len() int { return len(c.fns) }

// Process implements Function.
func (c *Chain) Process(dir Direction, frame []byte) Output { return ProcessOne(c, dir, frame) }

// ExportState implements container.StateHandler: the state of every
// stateful member (length-prefixed, positional), which is the export since
// nothing.
func (c *Chain) ExportState() ([]byte, error) {
	data, _, err := exportChainState(c.fns, nil)
	return data, err
}

// ImportState implements container.StateHandler by merging exported state
// into the members' current state.
func (c *Chain) ImportState(data []byte) error {
	return importChainState(c.fns, data)
}

// ExportStateDelta implements container.DeltaStateHandler: it exports only
// the member state dirtied since the epoch vector of a previous export, and
// the vector to pass next; since == nil exports everything and starts the
// sequence.
func (c *Chain) ExportStateDelta(since []uint64) ([]byte, []uint64, error) {
	return exportChainState(c.fns, since)
}

// SetNotifier fans the notifier out to every member that accepts one.
func (c *Chain) SetNotifier(fn NotifyFunc) {
	for _, f := range c.fns {
		if ns, ok := f.(NotifierSetter); ok {
			ns.SetNotifier(fn)
		}
	}
}

// SetClock fans the clock out to every member that accepts one.
func (c *Chain) SetClock(clk clock.Clock) {
	for _, f := range c.fns {
		if cs, ok := f.(ClockSetter); ok {
			cs.SetClock(clk)
		}
	}
}

// NFStats merges member stats, prefixed by member name.
func (c *Chain) NFStats() map[string]uint64 {
	out := make(map[string]uint64)
	for _, f := range c.fns {
		if sr, ok := f.(StatsReporter); ok {
			for k, v := range sr.NFStats() {
				out[f.Name()+"."+k] = v
			}
		}
	}
	return out
}

var _ Function = (*Chain)(nil)
