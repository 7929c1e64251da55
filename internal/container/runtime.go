package container

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gnf/internal/clock"
	"gnf/internal/metrics"
)

// State is a container lifecycle state.
type State uint8

// Container lifecycle states.
const (
	StateCreated State = iota
	StateRunning
	StatePaused
	StateStopped
	StateRemoved
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateStopped:
		return "stopped"
	case StateRemoved:
		return "removed"
	default:
		return fmt.Sprintf("state-%d", uint8(s))
	}
}

// CostModel parameterises lifecycle latencies. Per-KB costs apply to
// checkpoint/restore of exported state.
type CostModel struct {
	Create       time.Duration
	Start        time.Duration
	Stop         time.Duration
	Pause        time.Duration
	CheckpointKB time.Duration // per KiB of exported state
	RestoreKB    time.Duration // per KiB of imported state
}

// ContainerCosts is the default LXC-class cost model (tens of ms), matching
// the paper's "minimal cost of starting and stopping containers".
var ContainerCosts = CostModel{
	Create:       10 * time.Millisecond,
	Start:        110 * time.Millisecond,
	Stop:         25 * time.Millisecond,
	Pause:        5 * time.Millisecond,
	CheckpointKB: 40 * time.Microsecond,
	RestoreKB:    60 * time.Microsecond,
}

// VMCosts is the VM-class cost model used by the baseline comparator
// (hypervisor boot measured in tens of seconds).
var VMCosts = CostModel{
	Create:       2 * time.Second,
	Start:        25 * time.Second,
	Stop:         4 * time.Second,
	Pause:        200 * time.Millisecond,
	CheckpointKB: 40 * time.Microsecond,
	RestoreKB:    60 * time.Microsecond,
}

// StateHandler lets the application running inside a container export and
// import its state for checkpoint/restore-based migration.
type StateHandler interface {
	ExportState() ([]byte, error)
	ImportState([]byte) error
}

// DeltaStateHandler extends StateHandler with epoch-versioned incremental
// export/import, the substrate of pre-copy live migration: every round
// ships only the state dirtied since the previous round's epoch vector
// (one epoch per chain member; nil = full export).
type DeltaStateHandler interface {
	StateHandler
	ExportStateDelta(since []uint64) (delta []byte, epochs []uint64, err error)
	ImportStateDelta(delta []byte) error
}

// Config describes a container to create.
type Config struct {
	Name  string // unique per runtime
	Image string // must be pullable from the repository
	// CPUPercent overrides the image's idle CPU share when non-zero.
	CPUPercent float64
	// ExtraMemory adds to the image footprint (e.g. expected table sizes).
	ExtraMemory uint64
}

// Container is one NF instance. All methods are safe for concurrent use.
type Container struct {
	id   string
	cfg  Config
	img  Image
	rt   *Runtime
	born time.Time

	mu      sync.Mutex
	state   State
	handler StateHandler
}

// EventType classifies lifecycle events.
type EventType string

// Lifecycle event types.
const (
	EventCreated    EventType = "created"
	EventStarted    EventType = "started"
	EventStopped    EventType = "stopped"
	EventPaused     EventType = "paused"
	EventUnpaused   EventType = "unpaused"
	EventRemoved    EventType = "removed"
	EventPulled     EventType = "pulled"
	EventCheckpoint EventType = "checkpointed"
	EventRestored   EventType = "restored"
)

// Event is a runtime lifecycle notification.
type Event struct {
	Type      EventType `json:"type"`
	Container string    `json:"container"`
	Image     string    `json:"image,omitempty"`
	At        time.Time `json:"at"`
}

// Runtime is the per-station container engine.
type Runtime struct {
	host  string
	clk   clock.Clock
	repo  *Repository
	costs CostModel
	// MemoryCapacity bounds the sum of running containers' footprints;
	// 0 means unlimited.
	capacity uint64

	mu         sync.Mutex
	cache      map[string]Image
	pulling    map[string]*pull // in-flight cold pulls, by image name
	containers map[string]*Container
	nextID     int
	memInUse   uint64

	events    chan Event
	dropped   metrics.Counter
	pullsCold metrics.Counter
	pullsWarm metrics.Counter
}

// RuntimeOption configures NewRuntime.
type RuntimeOption func(*Runtime)

// WithCosts overrides the lifecycle cost model.
func WithCosts(c CostModel) RuntimeOption { return func(r *Runtime) { r.costs = c } }

// WithCapacity bounds host memory available to containers.
func WithCapacity(bytes uint64) RuntimeOption { return func(r *Runtime) { r.capacity = bytes } }

// NewRuntime creates a runtime for the named host pulling from repo.
func NewRuntime(host string, clk clock.Clock, repo *Repository, opts ...RuntimeOption) *Runtime {
	r := &Runtime{
		host:       host,
		clk:        clk,
		repo:       repo,
		costs:      ContainerCosts,
		cache:      make(map[string]Image),
		pulling:    make(map[string]*pull),
		containers: make(map[string]*Container),
		events:     make(chan Event, 256),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Host returns the host name this runtime serves.
func (r *Runtime) Host() string { return r.host }

// Events returns the lifecycle event stream. Events are dropped (and
// counted) when the buffer is full, never blocking the runtime.
func (r *Runtime) Events() <-chan Event { return r.events }

// EventsDropped reports how many events were lost to a full buffer.
func (r *Runtime) EventsDropped() uint64 { return r.dropped.Value() }

func (r *Runtime) emit(t EventType, ctr, image string) {
	select {
	case r.events <- Event{Type: t, Container: ctr, Image: image, At: r.clk.Now()}:
	default:
		r.dropped.Inc()
	}
}

// pull is one in-flight image transfer. The goroutine that started it fills
// the result and closes done; callers that arrive meanwhile wait on done and
// read the same result.
type pull struct {
	done chan struct{}
	img  Image
	d    time.Duration
	err  error
}

// EnsureImage makes the image locally available, pulling on cache miss.
// It returns the modeled fetch duration (zero on warm cache). Pulls are
// single-flight per image name: concurrent callers for one uncached image
// transfer it once and share the outcome — the waiters count as warm
// fetches and report the duration of the transfer they waited for. A failed
// pull is shared with its waiters but not cached; the next call retries.
func (r *Runtime) EnsureImage(name string) (Image, time.Duration, error) {
	r.mu.Lock()
	if img, ok := r.cache[name]; ok {
		r.mu.Unlock()
		r.pullsWarm.Inc()
		return img, 0, nil
	}
	if p, ok := r.pulling[name]; ok {
		r.mu.Unlock()
		<-p.done
		if p.err != nil {
			return Image{}, 0, p.err
		}
		r.pullsWarm.Inc()
		return p.img, p.d, nil
	}
	p := &pull{done: make(chan struct{})}
	r.pulling[name] = p
	r.mu.Unlock()

	p.img, p.d, p.err = r.repo.Pull(name)
	r.mu.Lock()
	delete(r.pulling, name)
	if p.err == nil {
		r.cache[name] = p.img
	}
	r.mu.Unlock()
	close(p.done)
	if p.err != nil {
		return Image{}, 0, p.err
	}
	r.pullsCold.Inc()
	r.emit(EventPulled, "", name)
	return p.img, p.d, nil
}

// CacheStats reports cold and warm image fetches.
func (r *Runtime) CacheStats() (cold, warm uint64) {
	return r.pullsCold.Value(), r.pullsWarm.Value()
}

// PrefetchImage warms the cache without creating a container.
func (r *Runtime) PrefetchImage(name string) error {
	_, _, err := r.EnsureImage(name)
	return err
}

// Create allocates a container (pulling its image if needed) and charges
// its memory footprint against capacity.
func (r *Runtime) Create(cfg Config) (*Container, error) {
	img, _, err := r.EnsureImage(cfg.Image)
	if err != nil {
		return nil, err
	}
	need := img.MemoryBytes + cfg.ExtraMemory
	r.mu.Lock()
	if _, exists := r.containers[cfg.Name]; exists && cfg.Name != "" {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNameInUse, cfg.Name)
	}
	if r.capacity > 0 && r.memInUse+need > r.capacity {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: need %d, in use %d of %d", ErrCapacity, need, r.memInUse, r.capacity)
	}
	r.nextID++
	id := fmt.Sprintf("%s/ctr-%d", r.host, r.nextID)
	if cfg.Name == "" {
		cfg.Name = id
	}
	c := &Container{id: id, cfg: cfg, img: img, rt: r, state: StateCreated, born: r.clk.Now()}
	r.containers[cfg.Name] = c
	r.memInUse += need
	r.mu.Unlock()

	r.clk.Sleep(r.costs.Create)
	r.emit(EventCreated, cfg.Name, cfg.Image)
	return c, nil
}

// Get looks a container up by name.
func (r *Runtime) Get(name string) (*Container, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.containers[name]
	return c, ok
}

// List returns containers sorted by name.
func (r *Runtime) List() []*Container {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Container, 0, len(r.containers))
	for _, c := range r.containers {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}

// Usage sums resource usage over non-removed containers.
func (r *Runtime) Usage() metrics.ResourceUsage {
	var u metrics.ResourceUsage
	for _, c := range r.List() {
		st := c.State()
		if st == StateRunning || st == StatePaused {
			u.MemoryBytes += c.MemoryBytes()
			u.CPUPercent += c.CPUPercent()
			u.Containers++
		}
	}
	return u
}

// MemoryInUse returns reserved container memory (including created and
// stopped containers, which hold their reservation until removed).
func (r *Runtime) MemoryInUse() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memInUse
}

// Capacity returns the configured memory capacity (0 = unlimited).
func (r *Runtime) Capacity() uint64 { return r.capacity }

// --- Container methods ---

// ID returns the runtime-assigned container ID.
func (c *Container) ID() string { return c.id }

// Name returns the user-assigned name.
func (c *Container) Name() string { return c.cfg.Name }

// Image returns the image the container was created from.
func (c *Container) Image() Image { return c.img }

// State returns the current lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// MemoryBytes is the container's resident footprint.
func (c *Container) MemoryBytes() uint64 { return c.img.MemoryBytes + c.cfg.ExtraMemory }

// CPUPercent is the container's CPU share.
func (c *Container) CPUPercent() float64 {
	if c.cfg.CPUPercent > 0 {
		return c.cfg.CPUPercent
	}
	return c.img.CPUPercent
}

// SetStateHandler installs the checkpoint/restore hook for the application
// inside the container.
func (c *Container) SetStateHandler(h StateHandler) {
	c.mu.Lock()
	c.handler = h
	c.mu.Unlock()
}

func (c *Container) transition(from []State, to State, cost time.Duration, ev EventType) error {
	c.mu.Lock()
	okFrom := false
	for _, s := range from {
		if c.state == s {
			okFrom = true
			break
		}
	}
	if !okFrom {
		st := c.state
		c.mu.Unlock()
		return fmt.Errorf("%w: %s (%s -> %s)", ErrBadState, c.cfg.Name, st, to)
	}
	c.state = to
	c.mu.Unlock()
	if cost > 0 {
		c.rt.clk.Sleep(cost)
	}
	c.rt.emit(ev, c.cfg.Name, c.img.Name)
	return nil
}

// Start boots the container.
func (c *Container) Start() error {
	return c.transition([]State{StateCreated, StateStopped}, StateRunning, c.rt.costs.Start, EventStarted)
}

// Stop halts the container, keeping its memory reservation until Remove.
func (c *Container) Stop() error {
	return c.transition([]State{StateRunning, StatePaused}, StateStopped, c.rt.costs.Stop, EventStopped)
}

// Pause freezes a running container.
func (c *Container) Pause() error {
	return c.transition([]State{StateRunning}, StatePaused, c.rt.costs.Pause, EventPaused)
}

// Unpause resumes a paused container.
func (c *Container) Unpause() error {
	return c.transition([]State{StatePaused}, StateRunning, c.rt.costs.Pause, EventUnpaused)
}

// Remove deletes the container and releases its memory reservation.
func (c *Container) Remove() error {
	c.mu.Lock()
	if c.state == StateRunning || c.state == StatePaused {
		st := c.state
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, c.cfg.Name, st)
	}
	if c.state == StateRemoved {
		c.mu.Unlock()
		return nil
	}
	c.state = StateRemoved
	c.mu.Unlock()

	c.rt.mu.Lock()
	delete(c.rt.containers, c.cfg.Name)
	c.rt.memInUse -= c.MemoryBytes()
	c.rt.mu.Unlock()
	c.rt.emit(EventRemoved, c.cfg.Name, c.img.Name)
	return nil
}

// Checkpoint exports the application state (requires a StateHandler). The
// container must be running or paused; cost scales with state size.
func (c *Container) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	h := c.handler
	st := c.state
	c.mu.Unlock()
	if st != StateRunning && st != StatePaused {
		return nil, fmt.Errorf("%w: checkpoint of %s container", ErrBadState, st)
	}
	if h == nil {
		return nil, ErrNoStateHandler
	}
	data, err := h.ExportState()
	if err != nil {
		return nil, err
	}
	kb := (len(data) + 1023) / 1024
	c.rt.clk.Sleep(time.Duration(kb) * c.rt.costs.CheckpointKB)
	c.rt.emit(EventCheckpoint, c.cfg.Name, c.img.Name)
	return data, nil
}

// CheckpointDelta exports only the application state dirtied since the
// epoch vector of a previous export (nil = full, starting the sequence).
// The modeled cost scales with the *delta* size — the whole point of
// pre-copy migration: the expensive full export happens while the source
// still serves, and the frozen residual round pays only for what changed.
func (c *Container) CheckpointDelta(since []uint64) ([]byte, []uint64, error) {
	c.mu.Lock()
	h := c.handler
	st := c.state
	c.mu.Unlock()
	if st != StateRunning && st != StatePaused {
		return nil, nil, fmt.Errorf("%w: checkpoint of %s container", ErrBadState, st)
	}
	if h == nil {
		return nil, nil, ErrNoStateHandler
	}
	dh, ok := h.(DeltaStateHandler)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoDeltaHandler, c.cfg.Name)
	}
	data, epochs, err := dh.ExportStateDelta(since)
	if err != nil {
		return nil, nil, err
	}
	kb := (len(data) + 1023) / 1024
	c.rt.clk.Sleep(time.Duration(kb) * c.rt.costs.CheckpointKB)
	c.rt.emit(EventCheckpoint, c.cfg.Name, c.img.Name)
	return data, epochs, nil
}

// Restore imports previously checkpointed state into the container.
func (c *Container) Restore(data []byte) error {
	c.mu.Lock()
	h := c.handler
	c.mu.Unlock()
	if h == nil {
		return ErrNoStateHandler
	}
	if err := h.ImportState(data); err != nil {
		return err
	}
	kb := (len(data) + 1023) / 1024
	c.rt.clk.Sleep(time.Duration(kb) * c.rt.costs.RestoreKB)
	c.rt.emit(EventRestored, c.cfg.Name, c.img.Name)
	return nil
}

// RestoreDelta merges a delta produced by CheckpointDelta into the
// container's application state; the modeled cost scales with the delta
// size.
func (c *Container) RestoreDelta(data []byte) error {
	c.mu.Lock()
	h := c.handler
	c.mu.Unlock()
	if h == nil {
		return ErrNoStateHandler
	}
	dh, ok := h.(DeltaStateHandler)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDeltaHandler, c.cfg.Name)
	}
	if err := dh.ImportStateDelta(data); err != nil {
		return err
	}
	kb := (len(data) + 1023) / 1024
	c.rt.clk.Sleep(time.Duration(kb) * c.rt.costs.RestoreKB)
	c.rt.emit(EventRestored, c.cfg.Name, c.img.Name)
	return nil
}
