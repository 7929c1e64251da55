package agent

import (
	"errors"
	"fmt"
	"sync"

	"gnf/internal/netem"
	"gnf/internal/share"
)

// Errors returned by the shared-pool paths.
var (
	ErrUnknownPool = errors.New("agent: no shared instance for pool key")
	ErrBadReplicas = errors.New("agent: replica count must be >= 1")
)

// poolResources is the dataplane payload behind one share.Instance: the
// replica set plus the two switch select groups (ingress/egress) that
// client steering rules fan into. Client rules never name replica ports
// directly, so scaling only rewrites group membership.
type poolResources struct {
	name string   // unique resource-name prefix ("pool-<hash>-gN")
	fns  []NFSpec // replica blueprint

	inGroup  int
	outGroup int

	// scaleMu serialises replica-set transitions (ScalePool, teardown).
	// Container boots happen under scaleMu only — never under mu — so
	// counter readers (reports, checkpoints) cannot stall behind a
	// modeled boot latency.
	scaleMu     sync.Mutex
	nextReplica int // monotonic naming index, never reused; scaleMu-held

	// mu guards the published replica list and the dead flag; held only
	// for cheap reads and list swaps. Replicas are plain chainResources,
	// always-forwarding — per-client activation lives in steering rules.
	mu       sync.Mutex
	replicas []*chainResources
	dead     bool // torn down by the reaper; reject scaling
}

// loads sums processed/dropped frames over the replica set and returns the
// per-replica processed breakdown, in replica order.
func (res *poolResources) loads() (processed, dropped uint64, per []uint64) {
	res.mu.Lock()
	defer res.mu.Unlock()
	per = make([]uint64, 0, len(res.replicas))
	for _, rep := range res.replicas {
		p := rep.host.Processed()
		processed += p
		dropped += rep.host.Dropped()
		per = append(per, p)
	}
	return processed, dropped, per
}

// poolKeyOf computes the canonical pool key of a chain spec. Function
// instance names are excluded: sharing is decided by configuration alone.
func poolKeyOf(fns []NFSpec) share.Key {
	specs := make([]share.FuncSpec, 0, len(fns))
	for _, fs := range fns {
		specs = append(specs, share.FuncSpec{Kind: fs.Kind, Params: fs.Params})
	}
	return share.ChainKey(specs)
}

// sharingEligible reports whether a deployment may attach to a shared
// instance: sharing enabled, both legs on this station's edge (ErrPooledLegs
// says why — so an offloaded chain and a split chain's segments keep an
// instance of their own; the manager still pools segment prefix keys for
// placement affinity, share.PrefixKeys), and every member kind registered
// shareable. Chains with any stateful member keep the one-instance-per-client
// layout of the paper.
func (a *Agent) sharingEligible(spec DeploySpec) bool {
	if !a.sharing || spec.Ingress != (Leg{}) || spec.Egress != (Leg{}) || len(spec.Functions) == 0 {
		return false
	}
	for _, fs := range spec.Functions {
		if !a.registry.Shareable(fs.Kind) {
			return false
		}
	}
	return true
}

// attachShared deploys spec against the shared pool: attach to a
// compatible live instance, or build the first replica of a new one. The
// attach cost of a pool hit is zero container boots — that is the whole
// point. A disabled attachment matches the exclusive layout's disabled
// semantics from the first frame: steer-and-drop, never an unfiltered
// window.
func (a *Agent) attachShared(spec DeploySpec) (*deployment, error) {
	key := poolKeyOf(spec.Functions)
	inst, _, err := a.pool.Acquire(key, spec.Chain, func() (any, error) {
		return a.buildPoolResources(key, spec.Functions)
	})
	if err != nil {
		return nil, err
	}
	dep := &deployment{spec: spec, shared: inst, steering: steering{deliver: spec.Enabled}}
	// Edge legs resolve against nothing that can be missing.
	_ = a.setLegs(dep, nil)
	return dep, nil
}

// containerNames lists the containers backing the instance, replica order.
func (res *poolResources) containerNames() []string {
	res.mu.Lock()
	defer res.mu.Unlock()
	var out []string
	for _, rep := range res.replicas {
		for _, c := range rep.containers {
			out = append(out, c.Name())
		}
	}
	return out
}

// buildPoolResources constructs a fresh shared instance: replica 0 and the
// steering groups. The generation counter keeps resource names unique even
// when a key is reaped and re-created.
func (a *Agent) buildPoolResources(key share.Key, fns []NFSpec) (*poolResources, error) {
	res := &poolResources{
		name:        fmt.Sprintf("pool-%s-g%d", key.Short(), a.poolSeq.Add(1)),
		fns:         fns,
		nextReplica: 1, // replica 0 is built right here
	}
	rep, err := a.buildPoolReplica(res, 0)
	if err != nil {
		return nil, err
	}
	res.replicas = []*chainResources{rep}
	res.inGroup = a.sw.AddGroup([]netem.PortID{rep.inPort})
	res.outGroup = a.sw.AddGroup([]netem.PortID{rep.outPort})
	return res, nil
}

// buildPoolReplica boots replica idx of res — the same build as an
// exclusive deployment (buildChainResources), named under the pool prefix
// and forwarding from birth: per-client activation is steering-only. The
// caller reserves idx from res.nextReplica, so several replicas can build
// at once. res.mu is deliberately not required: boots sleep modeled
// container costs.
func (a *Agent) buildPoolReplica(res *poolResources, idx int) (*chainResources, error) {
	rep, err := a.buildChainResources(fmt.Sprintf("%s-r%d", res.name, idx), res.fns)
	if err != nil {
		return nil, err
	}
	rep.host.Enable()
	return rep, nil
}

// ReapPools tears down shared instances that have been unreferenced past
// the pool's grace period, returning how many were reclaimed. It runs
// lazily on deploy/remove/report; tests and operators may call it
// directly.
func (a *Agent) ReapPools() int {
	reaped := a.pool.Reap()
	for _, inst := range reaped {
		a.teardownPoolResources(inst.Payload().(*poolResources))
	}
	return len(reaped)
}

// teardownPoolResources dismantles an instance: groups first (rules that
// somehow survive go to group-miss drops instead of a dead port), then
// every replica. Holding scaleMu keeps it from interleaving with an
// in-flight ScalePool.
func (a *Agent) teardownPoolResources(res *poolResources) {
	res.scaleMu.Lock()
	defer res.scaleMu.Unlock()
	res.mu.Lock()
	res.dead = true
	reps := res.replicas
	res.replicas = nil
	res.mu.Unlock()
	a.sw.RemoveGroup(res.inGroup)
	a.sw.RemoveGroup(res.outGroup)
	for _, rep := range reps {
		// Nobody to report to; a container that refuses to stop stays visible
		// in the runtime's list.
		_ = a.teardownChainResources(rep)
	}
}

// refreshGroups republishes the instance's group membership from the
// current replica set. Callers hold res.mu.
func (a *Agent) refreshGroups(res *poolResources) {
	inPorts := make([]netem.PortID, 0, len(res.replicas))
	outPorts := make([]netem.PortID, 0, len(res.replicas))
	for _, rep := range res.replicas {
		inPorts = append(inPorts, rep.inPort)
		outPorts = append(outPorts, rep.outPort)
	}
	a.sw.SetGroup(res.inGroup, inPorts)
	a.sw.SetGroup(res.outGroup, outPorts)
}

// ScalePool resizes a shared instance's replica set. Scale-out boots new
// replicas and then adds their ports to the steering groups (no frame
// reaches a replica before it forwards); scale-in drains first — victims
// leave the groups, flows re-hash onto survivors — and tears the victims
// down after. The generation bump of the group rewrite invalidates every
// cached flow verdict, so live flows re-spread immediately.
func (a *Agent) ScalePool(kinds, configHash string, replicas int) error {
	if replicas < 1 {
		return fmt.Errorf("%w: got %d", ErrBadReplicas, replicas)
	}
	key := share.Key{Kinds: kinds, ConfigHash: configHash}
	inst := a.pool.Get(key)
	if inst == nil {
		return fmt.Errorf("%w: %s/%s", ErrUnknownPool, kinds, configHash)
	}
	res := inst.Payload().(*poolResources)
	res.scaleMu.Lock()
	defer res.scaleMu.Unlock()
	res.mu.Lock()
	cur := len(res.replicas)
	if res.dead {
		res.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrUnknownPool, kinds, configHash)
	}
	res.mu.Unlock()

	// Scale out first, without holding res.mu: booting a replica sleeps
	// the modeled container costs, and counter readers (reports feeding
	// the very autoscaler driving this call) must not stall behind it. The
	// missing replicas boot side by side and are all joined before any is
	// published.
	built := make([]*chainResources, max(replicas-cur, 0))
	first := res.nextReplica
	res.nextReplica += len(built)
	buildErr := inParallel(len(built), func(i int) (err error) {
		built[i], err = a.buildPoolReplica(res, first+i)
		return err
	})
	res.mu.Lock()
	added := 0
	for _, rep := range built {
		if rep != nil { // publish whatever did come up
			res.replicas = append(res.replicas, rep)
			added++
		}
	}
	var victims []*chainResources
	if buildErr == nil && len(res.replicas) > replicas {
		victims = append(victims, res.replicas[replicas:]...)
		res.replicas = res.replicas[:replicas]
	}
	if added > 0 || len(victims) > 0 {
		// A no-op resize must not rewrite the groups: every SetGroup bumps
		// the switch generation and flushes the whole per-flow verdict
		// cache — for all flows on the station, not just this pool's.
		a.refreshGroups(res)
	}
	res.mu.Unlock()
	for _, rep := range victims {
		_ = a.teardownChainResources(rep) // as in teardownPoolResources
	}
	return buildErr
}

// PoolStats snapshots the agent's shared-instance table for reports, the
// autoscaler and gnfctl pools.
func (a *Agent) PoolStats() []PoolStatus {
	stats := a.pool.Snapshot()
	out := make([]PoolStatus, 0, len(stats))
	for _, st := range stats {
		ps := PoolStatus{
			Kinds:      st.Key.Kinds,
			ConfigHash: st.Key.ConfigHash,
			Refs:       st.Refs,
		}
		if inst := a.pool.Get(st.Key); inst != nil {
			res := inst.Payload().(*poolResources)
			ps.Processed, ps.Dropped, ps.PerReplica = res.loads()
			ps.Replicas = len(ps.PerReplica)
		}
		out = append(out, ps)
	}
	return out
}
