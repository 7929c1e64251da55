// Package agent implements the GNF Agent of §3: "a lightweight daemon
// running on the stations managed by the provider. It is responsible for
// the instantiation of the NFs on the hosting platform, notifying the
// Manager of clients' (dis)connection and reporting periodically the state
// of the device."
//
// The Agent owns its station's dataplane: the software switch, the
// container runtime, and — per deployed chain — the two veth pairs that
// connect the chain's container(s) to the switch, plus the steering rules
// that transparently divert the client's traffic through the chain.
//
// Design note on chains vs containers: GNF runs every NF of a chain in its
// own container (that is what the density and footprint accounting model),
// while the packet path hosts the whole chain in one ChainHost between a
// single ingress/egress veth pair. This keeps resource accounting faithful
// per NF without paying a synthetic per-hop veth cost that the in-process
// chain would render meaningless.
package agent

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gnf/internal/clock"
	"gnf/internal/container"
	"gnf/internal/netem"
	"gnf/internal/nf"
	"gnf/internal/packet"
	"gnf/internal/share"
	"gnf/internal/topology"
	"gnf/internal/trace"
)

// Errors returned by the agent.
var (
	ErrUnknownChain  = errors.New("agent: unknown chain")
	ErrChainExists   = errors.New("agent: chain already deployed")
	ErrUnknownClient = errors.New("agent: unknown client")
	ErrNoTunnel      = errors.New("agent: no tunnel to station")
)

// Steering rule priorities: client redirection beats everything else the
// station programs, and a steer beats local chain steering so a steered
// client's traffic leaves for the station hosting its chain before any local
// rule — a staged migration target's included — can claim it.
const (
	steerPriority  = 100
	detourPriority = 200
)

// brownoutDepth bounds the per-chain brownout buffer armed on disabled
// (migration) deploys: frames the client sends while its chain is
// frozen mid-handoff are parked up to this depth and replayed on
// activation instead of being dropped.
const brownoutDepth = 4096

// clientInfo tracks one associated client.
type clientInfo struct {
	id   topology.ClientID
	mac  packet.MAC
	ip   packet.IP
	port netem.PortID
}

// deployment is one running chain: what serves it — an exclusive instance
// (the paper's one-chain-per-client layout) or an attachment to a shared pool
// instance serving every client with the same configuration — plus the
// steering that brings one client's traffic to it.
type deployment struct {
	// spec is the deployment as it was asked for; its legs are the
	// deployment's home, which an arriving client's ingress leg returns to.
	spec DeploySpec
	// building marks a name reservation while Deploy constructs resources;
	// such entries are invisible to every other API.
	building bool
	// Pre-copy session state (guarded by Agent.mu): the per-member dirty
	// epochs of the last PreCopy export and the 1-based round counter.
	// Rounds of one session are serialised by the manager (per-client
	// migration lock), so no finer synchronisation is needed.
	preEpochs []uint64
	preRound  int

	// What serves: exactly one of the two is set.
	res    *chainResources
	shared *share.Instance

	// The live steering and the rules installed for it, all guarded by
	// Agent.mu and changed by setLegs alone. removed is set by Remove, and
	// steerSeq counts intents: between them an install racing a removal or a
	// newer intent never leaves rules behind.
	steering
	removed  bool
	steerSeq uint64
	ruleIDs  []int
}

// Agent is the station daemon.
type Agent struct {
	station  topology.StationID
	clk      clock.Clock
	rt       *container.Runtime
	sw       *netem.Switch
	uplink   netem.PortID
	registry *nf.Registry
	cloud    bool
	sharing  bool
	pool     *share.Pool
	poolSeq  atomic.Uint64 // shared-instance name generations

	// tracer buffers this agent's finished spans; the RPC layer flushes
	// them to the manager before each traced response returns.
	tracer *trace.Tracer

	// retiredDrops accumulates the drop counters of chains that have been
	// torn down, so station-level loss accounting (the zero-loss scenario
	// expectation) survives migration removals.
	retiredDrops atomic.Uint64

	// steerHook, when set (tests only), runs in setLegs between a rule set's
	// install and its swap — the window a removal can land in.
	steerHook func()

	mu          sync.Mutex
	clients     map[topology.ClientID]clientInfo
	deployments map[string]*deployment
	tunnels     map[topology.StationID]netem.PortID
	steers      map[topology.ClientID]int // detour rule IDs
	nextPort    netem.PortID
	notifySink  func(Alert)
	clientSink  func(ClientEvent)
}

// Option configures New.
type Option func(*Agent)

// WithRegistry overrides the NF factory registry (default nf.Default).
func WithRegistry(r *nf.Registry) Option { return func(a *Agent) { a.registry = r } }

// WithCloud marks this agent's station as a GNFC cloud site. Cloud sites
// register with the Cloud flag, host offloaded chains with remote steering
// and are skipped by placement unless it allows the cloud.
func WithCloud() Option { return func(a *Agent) { a.cloud = true } }

// WithSharingDisabled forces the paper's one-instance-per-client layout
// even for shareable chains — the ablation baseline for E5.
func WithSharingDisabled() Option { return func(a *Agent) { a.sharing = false } }

// New creates an agent for station, owning switch sw (with the uplink to
// the backhaul already attached at uplinkPort) and container runtime rt.
func New(station topology.StationID, clk clock.Clock, rt *container.Runtime, sw *netem.Switch, uplinkPort netem.PortID, opts ...Option) *Agent {
	a := &Agent{
		station:     station,
		clk:         clk,
		rt:          rt,
		sw:          sw,
		uplink:      uplinkPort,
		registry:    nf.Default,
		sharing:     true,
		clients:     make(map[topology.ClientID]clientInfo),
		deployments: make(map[string]*deployment),
		tunnels:     make(map[topology.StationID]netem.PortID),
		steers:      make(map[topology.ClientID]int),
		nextPort:    1000,
	}
	for _, o := range opts {
		o(a)
	}
	a.pool = share.NewPool(a.clk, 0)
	a.tracer = trace.New(clk, trace.WithOrigin(string(station)), trace.WithBuffer(0))
	return a
}

// Tracer exposes the agent's span tracer (the RPC layer drains it).
func (a *Agent) Tracer() *trace.Tracer { return a.tracer }

// Station returns the agent's station ID.
func (a *Agent) Station() topology.StationID { return a.station }

// Cloud reports whether this station is a GNFC cloud site.
func (a *Agent) Cloud() bool { return a.cloud }

// Switch returns the station's software switch.
func (a *Agent) Switch() *netem.Switch { return a.sw }

// Runtime returns the station's container runtime.
func (a *Agent) Runtime() *container.Runtime { return a.rt }

// OnAlert installs the sink receiving NF notifications (the connected
// manager link installs itself here).
func (a *Agent) OnAlert(fn func(Alert)) {
	a.mu.Lock()
	a.notifySink = fn
	a.mu.Unlock()
}

// OnClientEvent installs the sink receiving client (dis)connections.
func (a *Agent) OnClientEvent(fn func(ClientEvent)) {
	a.mu.Lock()
	a.clientSink = fn
	a.mu.Unlock()
}

// allocPort reserves a fresh switch port id. Called with mu held.
func (a *Agent) allocPort() netem.PortID {
	p := a.nextPort
	a.nextPort++
	return p
}

// AttachClient wires an associated client into the station switch at the
// given port (the core wiring layer created the veth). It fires the
// (dis)connection notification toward the manager.
func (a *Agent) AttachClient(id topology.ClientID, mac packet.MAC, ip packet.IP, port netem.PortID) {
	a.mu.Lock()
	a.clients[id] = clientInfo{id: id, mac: mac, ip: ip, port: port}
	sink := a.clientSink
	a.mu.Unlock()
	// Sticky FDB entry, as an AP installs for an associated station: the
	// client's frames flooded back from the backhaul must never repoint
	// local forwarding away from the access port.
	a.sw.PinMAC(mac, port)
	// A chain whose leg still rides the tunnel the client left through (a
	// handoff that bounced back mid-move) takes it straight off the access
	// port again — before the manager even hears about the handoff.
	a.armClientSteering(id)
	if sink != nil {
		sink(ClientEvent{Station: string(a.station), Client: string(id), Connected: true, MAC: mac, IP: ip})
	}
}

// armClientSteering sends home, for a freshly associated client, the ingress
// leg of every deployment whose home is the edge it just arrived at and that
// was left detoured toward the station the client came back from — were it
// not, return traffic would keep entering a tunnel whose far end no longer
// knows the client.
func (a *Agent) armClientSteering(id topology.ClientID) {
	a.mu.Lock()
	var rearm []*deployment
	if _, here := a.clients[id]; here {
		for _, d := range a.deployments {
			if !d.building && d.spec.Client == string(id) && d.spec.Ingress.Station == "" && d.ingress.Station != "" {
				rearm = append(rearm, d)
			}
		}
	}
	a.mu.Unlock()
	for _, d := range rearm {
		// Best effort: a deployment removed meanwhile needs no leg, and one
		// whose egress leg no longer resolves keeps the steering it has.
		_ = a.setLegs(d, func(s *steering) { s.ingress = d.spec.Ingress })
	}
}

// DetachClient removes a client (cell disassociation). Any offload detour
// dies with the association: the client's traffic now enters at its next
// station, which installs its own detour.
func (a *Agent) DetachClient(id topology.ClientID) {
	a.mu.Lock()
	ci, known := a.clients[id]
	delete(a.clients, id)
	steerID, steered := a.steers[id]
	delete(a.steers, id)
	sink := a.clientSink
	a.mu.Unlock()
	if known {
		a.sw.UnpinMAC(ci.mac)
	}
	if steered {
		a.sw.RemoveRule(steerID)
	}
	if known && sink != nil {
		sink(ClientEvent{Station: string(a.station), Client: string(id), Connected: false})
	}
}

// Client returns the attach record for a client.
func (a *Agent) Client(id topology.ClientID) (mac packet.MAC, ip packet.IP, port netem.PortID, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ci, ok := a.clients[id]
	if !ok {
		return packet.MAC{}, packet.IP{}, 0, fmt.Errorf("%w: %s", ErrUnknownClient, id)
	}
	return ci.mac, ci.ip, ci.port, nil
}

// Deploy instantiates spec: containers are created and started, veths
// wired, steering installed. It returns the modeled attach latency.
//
// Shareable specs (every member kind registered Shareable, local chain)
// go through the per-agent shared pool instead: if a compatible instance
// already runs, Deploy only attaches a reference and installs steering —
// no containers boot, which is how a station hosts thousands of clients
// running the same firewall spec with O(replicas) instances.
func (a *Agent) Deploy(spec DeploySpec) (*DeployResult, error) {
	a.mu.Lock()
	if _, dup := a.deployments[spec.Chain]; dup {
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrChainExists, spec.Chain)
	}
	// Reserve the name so concurrent deploys of the same chain can never
	// both build; the reservation is invisible to every other API.
	a.deployments[spec.Chain] = &deployment{spec: spec, building: true}
	a.mu.Unlock()

	started := a.clk.Now()
	dep, err := a.buildDeployment(spec)
	if err != nil {
		a.mu.Lock()
		delete(a.deployments, spec.Chain)
		a.mu.Unlock()
		return nil, err
	}
	a.mu.Lock()
	a.deployments[spec.Chain] = dep
	a.mu.Unlock()
	// Lazy reaping rides control-plane activity — after the attach, so a
	// re-deploy arriving right at grace expiry revives the warm instance
	// instead of watching it die first.
	a.ReapPools()

	res := &DeployResult{Chain: spec.Chain, AttachMillis: a.clk.Since(started).Milliseconds()}
	if dep.shared != nil {
		res.Shared = true
		res.Containers = dep.shared.Payload().(*poolResources).containerNames()
	} else {
		for _, c := range dep.res.containers {
			res.Containers = append(res.Containers, c.Name())
		}
	}
	return res, nil
}

// chainResources is one built chain instance: functions in containers,
// the ChainHost between its two veth pairs, attached at two service ports.
// Both the exclusive layout and shared-pool replicas are made of exactly
// this; only naming and steering differ.
type chainResources struct {
	chain      *nf.Chain
	host       *nf.ChainHost
	containers []*container.Container
	endpoints  []*netem.Endpoint // switch-side ends (close on teardown)
	inPort     netem.PortID
	outPort    netem.PortID
}

// inParallel runs fn(0) … fn(n-1), one goroutine per index, and returns
// once all of them have: no goroutine it starts outlives the call. The
// result is the error of the lowest failing index, so which error surfaces
// does not depend on scheduling.
func inParallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stopAll stops and removes a chain's containers, all members at once:
// they do not depend on each other, so teardown costs one stop, not one per
// NF. Nil entries (members that never came up) are skipped. Exclusive
// removal, pool-replica teardown and deploy rollback all end here.
func stopAll(containers []*container.Container) error {
	return inParallel(len(containers), func(i int) error {
		c := containers[i]
		if c == nil {
			return nil
		}
		// Remove even when Stop refuses (a member that was created but
		// never started): the memory reservation must not leak.
		stopErr := c.Stop()
		if err := c.Remove(); err != nil && stopErr == nil {
			return err
		}
		return stopErr
	})
}

// buildChainResources boots one chain instance named name from fns: one
// container per NF (as GNF packages functions individually), the chain's
// aggregate state riding the first container's checkpoint, and the
// ingress/egress veth pairs attached as service ports. The host starts
// disabled; callers enable it when forwarding should begin.
//
// Images resolve one at a time — the station has a single repository link,
// so pulls must not overlap, and an unknown image fails before anything
// boots. The members then boot concurrently: a chain comes up in the time
// of its slowest container, not the sum. Every boot is joined before the
// outcome is looked at, so on a member's failure the rollback sees every
// container that did come up and none can reach running after it.
func (a *Agent) buildChainResources(name string, fns []NFSpec) (*chainResources, error) {
	members := make([]nf.Function, 0, len(fns))
	for _, fs := range fns {
		fn, err := a.registry.New(fs.Kind, fs.Name, fs.Params)
		if err != nil {
			return nil, err
		}
		members = append(members, fn)
	}
	chain := nf.NewChain(name, members...)
	chain.SetClock(a.clk)
	chain.SetNotifier(func(n nf.Notification) {
		a.mu.Lock()
		sink := a.notifySink
		a.mu.Unlock()
		if sink != nil {
			sink(Alert{Station: string(a.station), Notification: n})
		}
	})

	for _, fs := range fns {
		if err := a.rt.PrefetchImage(a.registry.ImageForKind(fs.Kind)); err != nil {
			return nil, err
		}
	}
	containers := make([]*container.Container, len(fns))
	err := inParallel(len(fns), func(i int) error {
		c, err := a.rt.Create(container.Config{
			Name:  fmt.Sprintf("%s-%d-%s", name, i, fns[i].Kind),
			Image: a.registry.ImageForKind(fns[i].Kind),
		})
		if err != nil {
			return err
		}
		containers[i] = c
		return c.Start()
	})
	if err != nil {
		// The boot error is the one worth reporting; a member that only
		// got as far as created makes Stop complain, which is expected.
		_ = stopAll(containers)
		return nil, err
	}
	cr := &chainResources{chain: chain, containers: containers}
	if len(containers) > 0 {
		containers[0].SetStateHandler(chain)
	}

	// Switch and chain share the box. Each leg queues toward the chain —
	// the switch's ports are fed by rings many chains share, and this is
	// where their flows part — and is a direct call back: the leg's one
	// goroutine carries a batch through the chain and the switch pass after
	// it, up to the next device's ring.
	swIn, chainIn := netem.NewServicePair(name+"-in0", name+"-in1")
	swOut, chainOut := netem.NewServicePair(name+"-out0", name+"-out1")
	cr.host = nf.NewChainHost(chain, chainIn, chainOut)
	cr.endpoints = []*netem.Endpoint{swIn, swOut}

	a.mu.Lock()
	cr.inPort, cr.outPort = a.allocPort(), a.allocPort()
	a.mu.Unlock()
	a.sw.AttachService(cr.inPort, swIn)
	a.sw.AttachService(cr.outPort, swOut)
	return cr, nil
}

// teardownChainResources stops forwarding and releases the instance's
// ports, veths and containers, reporting a container that would not stop.
func (a *Agent) teardownChainResources(cr *chainResources) error {
	cr.host.Disable()
	// Parked brownout frames die with the chain; count them so teardown
	// never hides real traffic loss (e.g. a frozen source removed while its
	// client was still attached, as manual migrations do).
	a.retiredDrops.Add(cr.host.Dropped() + cr.host.Parked())
	a.sw.Detach(cr.inPort)
	a.sw.Detach(cr.outPort)
	for _, ep := range cr.endpoints {
		ep.Close()
	}
	return stopAll(cr.containers)
}

// buildDeployment constructs the resources behind one deployment: a shared
// pool attachment when eligible, otherwise an exclusive instance.
func (a *Agent) buildDeployment(spec DeploySpec) (*deployment, error) {
	if a.sharingEligible(spec) {
		return a.attachShared(spec)
	}

	cr, err := a.buildChainResources(spec.Chain, spec.Functions)
	if err != nil {
		return nil, err
	}
	dep := &deployment{
		spec: spec, res: cr,
		steering: steering{ingress: spec.Ingress, egress: spec.Egress, deliver: true},
	}
	if err := a.setLegs(dep, nil); err != nil {
		// A failed build has no caller for a second error; a container that
		// refuses to stop stays visible in the runtime's list.
		_ = a.teardownChainResources(cr)
		return nil, err
	}

	if spec.Enabled {
		cr.host.Enable()
	} else {
		// Migration deploys start disabled; park the freeze
		// window's frames for replay on activation instead of dropping
		// them. Schedule windows disable *running* chains and are
		// unaffected: their out-of-window traffic still drops.
		cr.host.BufferWhileDisabled(brownoutDepth)
	}
	return dep, nil
}

// ImageForKind resolves an NF kind's repository image name through the
// default registry, so registered NF versions select the image tag.
func ImageForKind(kind string) string { return nf.Default.ImageForKind(kind) }

// get fetches a deployment; names still mid-build are invisible.
func (a *Agent) get(chain string) (*deployment, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.deployments[chain]
	if !ok || d.building {
		return nil, fmt.Errorf("%w: %s", ErrUnknownChain, chain)
	}
	return d, nil
}

// setForwarding turns a chain's forwarding on or off. An exclusive chain's
// host does it; a shared attachment's steering does, since the pooled
// instance itself always forwards for its other sharers — enabled, the
// client's rules select the instance's groups, disabled they drop. A
// disabled chain so behaves the same — fail closed — whether its instance is
// exclusive or shared: a firewall mid-migration never fails open just
// because the instance also serves other clients.
func (a *Agent) setForwarding(chain string, on bool, host func(*nf.ChainHost)) error {
	d, err := a.get(chain)
	if err != nil {
		return err
	}
	if d.shared != nil {
		return a.setLegs(d, func(s *steering) { s.deliver = on })
	}
	host(d.res.host)
	return nil
}

// Enable starts forwarding on a deployed chain.
func (a *Agent) Enable(chain string) error {
	_, err := a.enable(chain)
	return err
}

// enable is Enable, counted: how many frames the chain's brownout buffer had
// parked — the freeze window of a stop-and-copy move onto this station — and
// replayed on the way to forwarding. Zero for a shared attachment, which has
// no buffer of its own.
func (a *Agent) enable(chain string) (replayed uint64, err error) {
	err = a.setForwarding(chain, true, func(h *nf.ChainHost) {
		before := h.Replayed()
		h.Enable()
		replayed = h.Replayed() - before
	})
	return replayed, err
}

// Disable pauses forwarding: traffic for the chain drops.
func (a *Agent) Disable(chain string) error {
	return a.setForwarding(chain, false, (*nf.ChainHost).Disable)
}

// Freeze pauses forwarding for a migration: unlike Disable, in-flight
// stragglers park in the brownout buffer, keeping the freeze window
// drop-free while the residual delta ships. Frames still parked when the
// source is removed are folded into the station's retired-drop counter —
// loss is deferred and made visible at teardown, never hidden. Shared
// attachments swap to drop rules like Disable (the roamed client's traffic
// no longer arrives here).
func (a *Agent) Freeze(chain string) error {
	return a.setForwarding(chain, false, func(h *nf.ChainHost) { h.FreezeBuffered(brownoutDepth) })
}

// stateOf resolves what a state-moving call acts on: the chain, and the
// container whose checkpoint carries its state — nil for a chain without
// functions and for a pool attachment, which stands for its instance's
// primary replica (shareable NFs hold only advisory state — counters —
// exported for continuity, never per-client correctness state). With
// importing set, a pooled instance that serves other sharers too yields a
// nil chain: the state of the clients already being served wins, and an
// import only lands while this attachment is the sole sharer (a migration
// arriving on a fresh instance).
func (a *Agent) stateOf(chain string, importing bool) (*deployment, *nf.Chain, *container.Container, error) {
	d, err := a.get(chain)
	if err != nil {
		return nil, nil, nil, err
	}
	if d.shared == nil {
		if len(d.res.containers) == 0 {
			return d, d.res.chain, nil, nil
		}
		return d, d.res.chain, d.res.containers[0], nil
	}
	if importing && a.pool.Refs(d.shared.Key()) != 1 {
		return d, nil, nil, nil
	}
	res := d.shared.Payload().(*poolResources)
	res.mu.Lock()
	defer res.mu.Unlock()
	if len(res.replicas) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrUnknownChain, chain)
	}
	return d, res.replicas[0].chain, nil, nil
}

// Checkpoint exports the chain's aggregate NF state.
func (a *Agent) Checkpoint(chain string) ([]byte, error) {
	_, ch, box, err := a.stateOf(chain, false)
	if err != nil {
		return nil, err
	}
	if box == nil {
		return ch.ExportState()
	}
	return box.Checkpoint()
}

// Restore imports chain state exported by Checkpoint.
func (a *Agent) Restore(chain string, state []byte) error {
	_, ch, box, err := a.stateOf(chain, true)
	if err != nil || ch == nil {
		return err
	}
	if box == nil {
		return ch.ImportState(state)
	}
	return box.Restore(state)
}

// PreCopy runs one pre-copy round for a live migration: it exports the
// chain state dirtied since the previous round of the session (the full
// state on the first round) while the chain keeps serving. restart
// discards any stale session from an earlier migration attempt. Rounds of
// one session are serialised by the caller (the manager holds the
// client's migration lock).
func (a *Agent) PreCopy(chain string, restart bool) (*PreCopyResult, error) {
	d, ch, box, err := a.stateOf(chain, false)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if restart {
		d.preEpochs, d.preRound = nil, 0
	}
	since := d.preEpochs
	a.mu.Unlock()

	var blob []byte
	var epochs []uint64
	if box == nil {
		blob, epochs, err = ch.ExportStateDelta(since)
	} else {
		blob, epochs, err = box.CheckpointDelta(since)
	}
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	d.preEpochs = epochs
	d.preRound++
	round := d.preRound
	a.mu.Unlock()
	return &PreCopyResult{Chain: chain, State: blob, Round: round}, nil
}

// SyncDelta applies one pre-copy round's payload to the target chain.
func (a *Agent) SyncDelta(chain string, state []byte) error {
	_, ch, box, err := a.stateOf(chain, true)
	if err != nil || ch == nil {
		return err
	}
	if box == nil {
		return ch.ImportStateDelta(state)
	}
	return box.RestoreDelta(state)
}

// Activate flips a migration-staged deployment live: steering is installed
// if the client has associated since the deploy, the chain starts
// forwarding, and every brownout-buffered frame is replayed in arrival
// order — the loss-free end of a handoff.
func (a *Agent) Activate(chain string) (*ActivateResult, error) {
	return a.ActivateTraced(trace.Context{}, chain)
}

// ActivateTraced is Activate under a trace: the steering flip and the
// brownout replay — the two sub-steps whose durations bound a handoff's
// downtime — each get their own child span when tctx is recording.
func (a *Agent) ActivateTraced(tctx trace.Context, chain string) (*ActivateResult, error) {
	d, err := a.get(chain)
	if err != nil {
		return nil, err
	}
	flip := a.tracer.Child(tctx, "agent.steer_flip")
	// A tunnel leg went in with the deploy; what can still be missing is the
	// leg of a client that has associated since, and an attachment's rules
	// drop until now. Best effort: a deployment removed meanwhile has no
	// rules to flip, and its host (or nothing) is all that is enabled below.
	_ = a.setLegs(d, func(s *steering) { s.deliver = true })
	flip.End(nil)
	if d.shared != nil {
		return &ActivateResult{Chain: chain}, nil
	}
	replay := a.tracer.Child(tctx, "agent.brownout_replay")
	before := d.res.host.Replayed()
	d.res.host.Enable()
	replayed := d.res.host.Replayed() - before
	replay.SetAttr("replayed", strconv.FormatUint(replayed, 10))
	replay.End(nil)
	return &ActivateResult{Chain: chain, Replayed: replayed}, nil
}

// Remove tears a deployment down: steering rules out first (traffic cuts
// over to normal forwarding), then containers, ports and veths. Shared
// attachments only drop their reference; the instance survives for other
// sharers, or idles into the reaper's grace window.
func (a *Agent) Remove(chain string) error {
	a.mu.Lock()
	d, ok := a.deployments[chain]
	if !ok || d.building {
		a.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownChain, chain)
	}
	delete(a.deployments, chain)
	// From here setLegs installs nothing more on this deployment: rules put
	// in past this point would never be cleaned up.
	d.removed = true
	ids := d.ruleIDs
	d.ruleIDs = nil
	a.mu.Unlock()
	for _, id := range ids {
		a.sw.RemoveRule(id)
	}
	if d.shared != nil {
		a.pool.Release(d.shared.Key(), d.spec.Chain)
		a.ReapPools()
		return nil
	}
	return a.teardownChainResources(d.res)
}

// Chains lists deployment names, sorted.
func (a *Agent) Chains() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.deployments))
	for name, d := range a.deployments {
		if d.building {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ChainEnabled reports whether a deployed chain is currently forwarding
// (for shared attachments: whether the client's steering delivers).
func (a *Agent) ChainEnabled(chain string) (bool, error) {
	d, err := a.get(chain)
	if err != nil {
		return false, err
	}
	if d.shared != nil {
		a.mu.Lock()
		defer a.mu.Unlock()
		return d.deliver, nil
	}
	return d.res.host.Enabled(), nil
}

// ChainFunction exposes the live chain function (local callers only, e.g.
// tests asserting NF state). For shared attachments it returns the pooled
// instance's primary replica.
func (a *Agent) ChainFunction(chain string) (*nf.Chain, error) {
	_, ch, _, err := a.stateOf(chain, false)
	return ch, err
}

// Report builds the periodic status report. It doubles as the reaper's
// heartbeat: idle shared instances whose grace lapsed between control-plane
// operations are reclaimed on the next report tick.
func (a *Agent) Report() Report {
	a.ReapPools()
	swst := a.sw.Stats()
	rep := Report{
		Station: string(a.station),
		Usage:   a.rt.Usage(),
		Switch: SwitchStats{
			RxFrames:      swst.RxFrames,
			Dropped:       swst.Dropped,
			Flooded:       swst.Flooded,
			Redirects:     swst.Redirects,
			Rules:         swst.Rules,
			CacheHits:     swst.CacheHits,
			CacheMisses:   swst.CacheMisses,
			FlowEntries:   swst.FlowEntries,
			BatchFrames:   swst.BatchFrames,
			BatchRuns:     swst.BatchRuns,
			SampledFrames: swst.SampledFrames,
		},
		RetiredDrops:         a.retiredDrops.Load(),
		FramePoolOutstanding: packet.FramePoolOutstanding(),
		UnixNano:             a.clk.Now().UnixNano(),
	}
	// Snapshot the mutable steering in the same locked pass that collects
	// the list, so the loop below never re-takes a.mu.
	type depSnap struct {
		d *deployment
		steering
	}
	a.mu.Lock()
	deps := make([]depSnap, 0, len(a.deployments))
	for _, d := range a.deployments {
		if d.building {
			continue
		}
		deps = append(deps, depSnap{d: d, steering: d.steering})
	}
	a.mu.Unlock()
	rep.Detours = a.Detours()
	// Sharers of one instance all report the same aggregate counters;
	// compute them once per instance, not once per sharer (a thousand
	// clients on one pool would otherwise rescan it a thousand times).
	type poolLoad struct{ processed, dropped uint64 }
	loadOf := make(map[*poolResources]poolLoad)
	for _, snap := range deps {
		d := snap.d
		cs := ChainStatus{
			Chain: d.spec.Chain, Client: d.spec.Client,
			Ingress: snap.ingress, Egress: snap.egress,
		}
		if d.shared != nil {
			res := d.shared.Payload().(*poolResources)
			load, ok := loadOf[res]
			if !ok {
				load.processed, load.dropped, _ = res.loads()
				loadOf[res] = load
			}
			cs.Enabled, cs.Processed, cs.Dropped = snap.deliver, load.processed, load.dropped
			cs.Shared, cs.ConfigHash = true, d.shared.Key().ConfigHash
		} else {
			host := d.res.host
			cs.Enabled, cs.Processed, cs.Dropped = host.Enabled(), host.Processed(), host.Dropped()
			cs.NFStats = d.res.chain.NFStats()
		}
		rep.Chains = append(rep.Chains, cs)
	}
	rep.Pools = a.PoolStats()
	return rep
}

// reportEvery is the default health reporting interval.
const reportEvery = time.Second
