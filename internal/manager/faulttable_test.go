package manager_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/trace"
)

// The exhaustive fault table: every shape of plan the move engine runs ×
// "fail step k" for every step of every RPC the shape issues. After each
// case the hosting model of the scripted stations must show every moving
// deployment enabled in exactly one place — back at its source when the
// move failed, with nothing left behind anywhere else — the manager's
// placement record must agree, and the client's traffic must enter where
// the steering rule says for the placements the move left: every station's
// steer, and every surviving head copy's ingress leg. Most RPCs are one step; a freezing checkpoint is
// the freeze, then the export, and an Enable carrying the last export is
// its import, then the go-live. A fault on the export leaves the source
// frozen, and only the move's rollback brings it back.

// faultFixture is a manager with three scripted edge stations and a cloud
// site, and client "phone" associated at st-src. st-agg sorts first, which
// makes it both the aggregation hub and the failover refuge.
type faultFixture struct {
	mgr    *manager.Manager
	agents map[string]*scriptedAgent
	dead   map[string]bool // killed stations: whatever they hosted is gone
}

func newFaultFixture(t *testing.T, strategy manager.Strategy) *faultFixture {
	t.Helper()
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(strategy))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	fx := &faultFixture{mgr: mgr, agents: map[string]*scriptedAgent{}, dead: map[string]bool{}}
	for _, st := range []string{"st-agg", "st-dst", "st-src"} {
		fx.agents[st] = newScriptedAgent(t, mgr, st)
	}
	fx.agents["nimbus"] = dialScriptedAgent(t, mgr, agent.RegisterSpec{Station: "nimbus", Cloud: true})
	fx.announce(t, "st-src")
	return fx
}

// announce reports phone (re)connecting at station and waits out whatever
// reconcile that triggers.
func (fx *faultFixture) announce(t *testing.T, station string) {
	t.Helper()
	if err := fx.agents[station].peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: station, Client: "phone", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	fx.mgr.WaitIdle()
}

// counterChain is a chain of one counter per affinity (one untagged counter
// without any).
func counterChain(name string, affinities ...string) manager.ChainSpec {
	spec := manager.ChainSpec{Name: name}
	if len(affinities) == 0 {
		affinities = []string{""}
	}
	for i, a := range affinities {
		spec.Functions = append(spec.Functions, agent.NFSpec{Kind: "counter", Name: fmt.Sprintf("c%d", i), Affinity: a})
	}
	return spec
}

func (fx *faultFixture) attach(t *testing.T, name string, affinities ...string) {
	t.Helper()
	if err := fx.mgr.AttachChain("phone", counterChain(name, affinities...)); err != nil {
		t.Fatal(err)
	}
}

// kill drops a station's connection and waits for the manager to notice.
func (fx *faultFixture) kill(t *testing.T, station string) {
	t.Helper()
	fx.agents[station].peer.Close()
	fx.dead[station] = true
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, alive := fx.mgr.AgentHandleFor(station); !alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("manager never dropped %s", station)
		}
	}
}

// faultPoint names one RPC of a shape's happy path: the nth call of method
// arriving at station.
type faultPoint struct {
	station, method string
	nth             int
}

func (p faultPoint) String() string { return fmt.Sprintf("%s@%s#%d", p.method, p.station, p.nth) }

// moveShape is one kind of plan, driven through the public API.
type moveShape struct {
	name     string
	strategy manager.Strategy
	// prepare builds the state the move starts from; op runs the move and
	// reports its failure.
	prepare func(t *testing.T, fx *faultFixture)
	op      func(t *testing.T, fx *faultFixture) error
	// moving lists the deployments the move carries from source ("" =
	// nowhere: an attach) to target, or to where targets names.
	moving         []string
	source, target string
	targets        map[string]string
	// detours marks a handoff of an exclusive head, whose render points the
	// client back at the source before the move: the move runs un-detoured
	// without its two RPCs.
	detours bool
	// rpcs pins how many RPCs the fault-free run issues, so a step added to
	// one shape cannot leak into another unnoticed; order, where set, pins
	// which and in what order each station saw them (stations in name order).
	rpcs  int
	order string
	// sameAs names the shape this one must match RPC for RPC.
	sameAs string
	// check holds shape-specific assertions beyond the hosting model.
	check func(t *testing.T, fx *faultFixture, failed bool)
}

const splitChain = "web" // [near-client][aggregate][cloud-ok]: web@st-src, web#1@st-agg, web#2@nimbus

var splitAffinities = []string{manager.AffinityNearClient, manager.AffinityAggregate, manager.AffinityCloudOK}

func attachSplit(t *testing.T, fx *faultFixture) {
	fx.attach(t, splitChain, splitAffinities...)
}

// offloadFirst offloads phone before it has a chain: nothing moves, and every
// chain attached from then on belongs on the site.
func offloadFirst(t *testing.T, fx *faultFixture) {
	if _, err := fx.mgr.OffloadClient("phone", "nimbus"); err != nil {
		t.Fatal(err)
	}
}

// attachOp is an attach shape's operation: AttachChain of spec.
func attachOp(spec manager.ChainSpec) func(*testing.T, *faultFixture) error {
	return func(_ *testing.T, fx *faultFixture) error { return fx.mgr.AttachChain("phone", spec) }
}

// attachedOrNothing checks an attach shape beyond the hosting model: a chain
// attached is recorded; a failed attach leaves no record and no steer anywhere,
// and attaching the chain again then succeeds.
func attachedOrNothing(spec manager.ChainSpec) func(*testing.T, *faultFixture, bool) {
	return func(t *testing.T, fx *faultFixture, failed bool) {
		if recorded := len(fx.mgr.Chains("phone")) == 1; recorded == failed {
			t.Errorf("attach failed=%v, yet Chains() = %+v", failed, fx.mgr.Chains("phone"))
		}
		if !failed {
			return
		}
		for st, sa := range fx.agents {
			if via, steered := sa.detour("phone"); steered {
				t.Errorf("a failed attach left %s steering phone toward %s", st, via)
			}
		}
		if err := attachOp(spec)(t, fx); err != nil {
			t.Errorf("re-attach after the fault: %v", err)
		}
	}
}

func migrateToDst(_ *testing.T, fx *faultFixture) error {
	_, err := fx.mgr.MigrateChain("phone", "chain", "st-dst")
	return err
}

func migrateSegment0ToDst(_ *testing.T, fx *faultFixture) error {
	_, err := fx.mgr.MigrateSegment("phone", "chain", 0, "st-dst")
	return err
}

// roamToDst hands the client off to st-dst. A handoff returns nothing; its
// outcome is the report of the migration it ran.
func roamToDst(t *testing.T, fx *faultFixture) error {
	before := len(fx.mgr.Migrations())
	fx.announce(t, "st-dst")
	migs := fx.mgr.Migrations()
	if len(migs) != before+1 {
		return fmt.Errorf("handoff ran %d migrations", len(migs)-before)
	}
	if rep := migs[before]; rep.Err != "" {
		return fmt.Errorf("%s", rep.Err)
	}
	return nil
}

// offloaded checks the client's offload site: unchanged after a failed
// move, the new one after a successful move.
func offloaded(before, after string) func(*testing.T, *faultFixture, bool) {
	return func(t *testing.T, fx *faultFixture, failed bool) {
		want := after
		if failed {
			want = before
		}
		if got := fx.mgr.Offloaded("phone"); got != want {
			t.Errorf("offload site = %q after the move (failed=%v), want %q", got, failed, want)
		}
	}
}

// headOnly checks an offload or recall of the split chain: the anchors stay
// put and serving, and segment 1's ingress leg follows the head from `from`
// to `to` (back on `from` after a failure).
func headOnly(from, to string) func(*testing.T, *faultFixture, bool) {
	return func(t *testing.T, fx *faultFixture, failed bool) {
		want := to
		if failed {
			want = from
		}
		if got := fx.agents["st-agg"].leg(splitChain+"#1", "ingress"); got != want {
			t.Errorf("segment 1's ingress leg points at %q, want %q", got, want)
		}
		for dep, st := range map[string]string{splitChain + "#1": "st-agg", splitChain + "#2": "nimbus"} {
			if enabled, present := fx.agents[st].hosts(dep); !enabled || !present {
				t.Errorf("anchor %s on %s: present=%v enabled=%v", dep, st, present, enabled)
			}
		}
	}
}

// attachPooled attaches "chain" with every station answering its deploys as
// attachments to a shared instance.
func attachPooled(t *testing.T, fx *faultFixture) {
	for _, sa := range fx.agents {
		sa.pool()
	}
	fx.attach(t, "chain")
}

func noDetourJournaled(t *testing.T, fx *faultFixture, _ bool) {
	if evs := fx.mgr.Journal().Events(0, trace.EventDetour); len(evs) != 0 {
		t.Errorf("a pooled chain's handoff journaled a detour: %+v", evs)
	}
}

// splitHeadLegs checks a split head's handoff: segment 1's ingress leg chases
// the head, and the detour moved nobody's egress leg — every copy of the head
// feeds segment 1 on st-agg.
func splitHeadLegs(t *testing.T, fx *faultFixture, failed bool) {
	want := "st-dst"
	if failed {
		want = "st-src"
	}
	if got := fx.agents["st-agg"].leg(splitChain+"#1", "ingress"); got != want {
		t.Errorf("segment 1's ingress leg points at %q, want %q", got, want)
	}
	for st, sa := range fx.agents {
		if _, present := sa.hosts(splitChain); present && sa.leg(splitChain, "egress") != "st-agg" {
			t.Errorf("the head's egress leg on %s was re-pointed at %q; a detour moves the ingress leg only", st, sa.leg(splitChain, "egress"))
		}
	}
}

// awayFromClient checks an operator move of the head away from its client:
// once it lands, the client's station steers the client to the target, whose
// ingress leg is the tunnel back; a failed move leaves no steer anywhere and
// the source on its edge.
func awayFromClient(t *testing.T, fx *faultFixture, failed bool) {
	if failed {
		for st, sa := range fx.agents {
			if via, steered := sa.detour("phone"); steered {
				t.Errorf("a failed move left %s steering phone toward %s", st, via)
			}
		}
		if leg := fx.agents["st-src"].leg("chain", "ingress"); leg != "" {
			t.Errorf("the source serves on a tunnel leg to %q, want its edge", leg)
		}
		return
	}
	via, _ := fx.agents["st-src"].detour("phone")
	if leg := fx.agents["st-dst"].leg("chain", "ingress"); via != "st-dst" || leg != "st-src" {
		t.Errorf("st-src steers phone toward %q and the target's ingress leg rides the tunnel to %q, want st-dst and st-src", via, leg)
	}
}

var moveShapes = []moveShape{
	{
		// Attaching is a cold move from nowhere: the chain deploys enabled at
		// the client's station, where the rule renders no steer.
		name: "attach", strategy: manager.StrategyStateful, rpcs: 1,
		order:   "st-src: deploy",
		prepare: func(*testing.T, *faultFixture) {},
		op:      attachOp(counterChain("chain")), moving: []string{"chain"}, target: "st-src",
		check: attachedOrNothing(counterChain("chain")),
	},
	{
		// Every segment where the rule puts it, tail first; the head lands at
		// the client's station, so again no steer.
		name: "attach split", strategy: manager.StrategyStateful, rpcs: 3,
		order:   "nimbus: deploy; st-agg: deploy; st-src: deploy",
		prepare: func(*testing.T, *faultFixture) {},
		op:      attachOp(counterChain(splitChain, splitAffinities...)),
		moving:  []string{splitChain, splitChain + "#1", splitChain + "#2"},
		targets: map[string]string{splitChain: "st-src", splitChain + "#1": "st-agg", splitChain + "#2": "nimbus"},
		check:   attachedOrNothing(counterChain(splitChain, splitAffinities...)),
	},
	{
		// The chain lands on the offload site with its ingress leg on the
		// tunnel to the client, and the render steers the client to it.
		name: "attach offloaded", strategy: manager.StrategyStateful, rpcs: 2,
		order:   "nimbus: deploy; st-src: steer",
		prepare: offloadFirst,
		op:      attachOp(counterChain("chain")), moving: []string{"chain"}, target: "nimbus",
		check: attachedOrNothing(counterChain("chain")),
	},
	{
		// The head goes to the site and the anchors where they always go; the
		// render steers the client to the head.
		name: "attach split+offloaded", strategy: manager.StrategyStateful, rpcs: 4,
		order:   "nimbus: deploy deploy; st-agg: deploy; st-src: steer",
		prepare: offloadFirst,
		op:      attachOp(counterChain(splitChain, splitAffinities...)),
		moving:  []string{splitChain, splitChain + "#1", splitChain + "#2"},
		targets: map[string]string{splitChain: "nimbus", splitChain + "#1": "st-agg", splitChain + "#2": "nimbus"},
		check:   attachedOrNothing(counterChain(splitChain, splitAffinities...)),
	},
	{
		// Make-before-break: the target deploys enabled on the tunnel leg to
		// the client (still at st-src), and the render with it landed steers
		// the client to it before the source goes.
		name: "cold", strategy: manager.StrategyCold, rpcs: 3,
		order:   "st-dst: deploy; st-src: steer remove",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      migrateToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
	},
	{
		// The source serves the client, so the target boots before the
		// freeze, and the freeze opens with the render that steers the client
		// to it: the target parks the client's frames until its Enable.
		name: "stateful", strategy: manager.StrategyStateful, rpcs: 5,
		order:   "st-dst: deploy enable; st-src: steer checkpoint remove",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      migrateToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
	},
	{
		name: "operator move away from the client", strategy: manager.StrategyStateful, rpcs: 5, sameAs: "stateful",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      migrateToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
		check: awayFromClient,
	},
	{
		// The client has already left the source: Retarget and Steer go first,
		// the target boots while the source serves through the tunnel, and the
		// Unsteer opens the freeze — from there the target parks the client's
		// frames until its Enable imports the source's last export and replays
		// them through it.
		name: "stateful handoff", strategy: manager.StrategyStateful, rpcs: 7, detours: true,
		order:   "st-dst: steer deploy unsteer enable; st-src: retarget checkpoint remove",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      roamToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
	},
	{
		// The stateful handoff's RPCs plus segment 1's ingress leg chasing the
		// head once it serves.
		name: "stateful handoff+split head", strategy: manager.StrategyStateful, rpcs: 8, detours: true,
		order:   "st-agg: retarget; st-dst: steer deploy unsteer enable; st-src: retarget checkpoint remove",
		prepare: attachSplit,
		op:      roamToDst, moving: []string{splitChain}, source: "st-src", target: "st-dst",
		check: splitHeadLegs,
	},
	{
		// No leg to point back at the client (see live handoff+pooled): the
		// operator move's RPCs in the operator move's order — the freeze at
		// once, the deploy beside it — and nothing journaled.
		name: "stateful handoff+pooled", strategy: manager.StrategyStateful, rpcs: 4,
		order:   "st-dst: deploy enable; st-src: checkpoint remove",
		prepare: attachPooled,
		op:      roamToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
		check: noDetourJournaled,
	},
	{
		// A stop-and-copy is a live move with zero pre-copy rounds, so each
		// live shape is its stateful twin plus round one — a checkpoint at the
		// source and a restore at the target — ahead of the freeze.
		name: "live", strategy: manager.StrategyLive, rpcs: 7,
		order:   "st-dst: deploy restore enable; st-src: checkpoint steer checkpoint remove",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      migrateToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
	},
	{
		// The client has already left the source: the live move's RPCs plus
		// Retarget and Steer up front and Unsteer at the freeze.
		name: "live handoff", strategy: manager.StrategyLive, rpcs: 9, detours: true,
		order:   "st-dst: steer deploy restore unsteer enable; st-src: retarget checkpoint checkpoint remove",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      roamToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
	},
	{
		// A split chain's head detours like any chain — its ingress leg moves,
		// its egress leg stays — and then has segment 1's ingress leg chase it:
		// the live handoff's RPCs plus that one Retarget at the hub.
		name: "live handoff+split head", strategy: manager.StrategyLive, rpcs: 10, detours: true,
		order:   "st-agg: retarget; st-dst: steer deploy restore unsteer enable; st-src: retarget checkpoint checkpoint remove",
		prepare: attachSplit,
		op:      roamToDst, moving: []string{splitChain}, source: "st-src", target: "st-dst",
		check: splitHeadLegs,
	},
	{
		// A shared attachment's legs stay on its station's edge, so there is
		// nothing to point back at the client:
		// the manager knows from the deploy's answer and asks nobody — the
		// operator move's RPCs, no tunnel, nothing journaled.
		name: "live handoff+pooled", strategy: manager.StrategyLive, rpcs: 6,
		order:   "st-dst: deploy restore enable; st-src: checkpoint checkpoint remove",
		prepare: attachPooled,
		op:      roamToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
		check: noDetourJournaled,
	},
	{
		// The merged entry point: an unsplit chain is its segment 0, so naming
		// the segment runs the operator move.
		name: "segment 0 via MigrateSegment", strategy: manager.StrategyStateful, rpcs: 5, sameAs: "stateful",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      migrateSegment0ToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
	},
	{
		name: "segment 0 via MigrateSegment+live", strategy: manager.StrategyLive, rpcs: 7, sameAs: "live",
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain") },
		op:      migrateSegment0ToDst, moving: []string{"chain"}, source: "st-src", target: "st-dst",
	},
	{
		// Failover revival of a split chain's head: no source to carry from,
		// and the anchored segment's previous leg must chase the head.
		name: "dead-source", strategy: manager.StrategyStateful, rpcs: 2,
		prepare: func(t *testing.T, fx *faultFixture) { attachSplit(t, fx); fx.kill(t, "st-src") },
		op: func(_ *testing.T, fx *faultFixture) error {
			for _, rep := range fx.mgr.CheckFailures() {
				if rep.Err != "" {
					return fmt.Errorf("%s: %s", rep.Chain, rep.Err)
				}
			}
			return nil
		},
		moving: []string{splitChain}, source: "st-src", target: "st-agg",
	},
	{
		name: "segment move", strategy: manager.StrategyStateful, rpcs: 6,
		prepare: attachSplit,
		op: func(_ *testing.T, fx *faultFixture) error {
			_, err := fx.mgr.MigrateSegment("phone", splitChain, 1, "st-dst")
			return err
		},
		moving: []string{splitChain + "#1"}, source: "st-agg", target: "st-dst",
		check: func(t *testing.T, fx *faultFixture, failed bool) {
			want := "st-dst"
			if failed {
				want = "st-agg"
			}
			for station, leg := range map[string][2]string{"st-src": {splitChain, "egress"}, "nimbus": {splitChain + "#2", "ingress"}} {
				if got := fx.agents[station].leg(leg[0], leg[1]); got != want {
					t.Errorf("%s's %s leg points at %q, want %q", leg[0], leg[1], got, want)
				}
			}
		},
	},
	{
		name: "offload", strategy: manager.StrategyStateful, rpcs: 9,
		prepare: func(t *testing.T, fx *faultFixture) { fx.attach(t, "chain-a"); fx.attach(t, "chain-b") },
		op: func(_ *testing.T, fx *faultFixture) error {
			_, err := fx.mgr.OffloadClient("phone", "nimbus")
			return err
		},
		moving: []string{"chain-a", "chain-b"}, source: "st-src", target: "nimbus",
		check: offloaded("", "nimbus"),
	},
	{
		// A split chain offloads head-only: the anchors stay, and the head's
		// move re-splices segment 1 onto the site.
		name: "offload split", strategy: manager.StrategyStateful, rpcs: 6,
		order:   "nimbus: deploy enable; st-agg: retarget; st-src: checkpoint steer remove",
		prepare: attachSplit,
		op: func(_ *testing.T, fx *faultFixture) error {
			_, err := fx.mgr.OffloadClient("phone", "nimbus")
			return err
		},
		moving: []string{splitChain}, source: "st-src", target: "nimbus",
		check: func(t *testing.T, fx *faultFixture, failed bool) {
			offloaded("", "nimbus")(t, fx, failed)
			headOnly("st-src", "nimbus")(t, fx, failed)
		},
	},
	{
		name: "recall split", strategy: manager.StrategyStateful, rpcs: 6,
		order: "nimbus: checkpoint remove; st-agg: retarget; st-src: deploy enable unsteer",
		prepare: func(t *testing.T, fx *faultFixture) {
			attachSplit(t, fx)
			offloadFirst(t, fx)
		},
		op: func(_ *testing.T, fx *faultFixture) error {
			_, err := fx.mgr.RecallClient("phone")
			return err
		},
		moving: []string{splitChain}, source: "nimbus", target: "st-src",
		check: func(t *testing.T, fx *faultFixture, failed bool) {
			offloaded("nimbus", "")(t, fx, failed)
			headOnly("nimbus", "st-src")(t, fx, failed)
		},
	},
	{
		name: "recall", strategy: manager.StrategyStateful, rpcs: 9,
		prepare: func(t *testing.T, fx *faultFixture) {
			fx.attach(t, "chain-a")
			fx.attach(t, "chain-b")
			if _, err := fx.mgr.OffloadClient("phone", "nimbus"); err != nil {
				t.Fatal(err)
			}
		},
		op: func(_ *testing.T, fx *faultFixture) error {
			_, err := fx.mgr.RecallClient("phone")
			return err
		},
		moving: []string{"chain-a", "chain-b"}, source: "nimbus", target: "st-src",
		check: offloaded("nimbus", ""),
	},
}

// run builds a fresh fixture, optionally arms one fault, runs the shape's
// move and returns the RPCs it issued, per station in name order.
func (sh moveShape) run(t *testing.T, fault *faultPoint) (*faultFixture, []faultPoint, error) {
	fx, issued, _, err := sh.runSteps(t, fault)
	return fx, issued, err
}

// runSteps is run that also returns the steps the stations did for those
// RPCs (scriptedAgent.stepsOf), per station in name order: the points a
// fault can strike. A merged call is two of them — the source's freeze and
// export in its last checkpoint, the target's import and go-live in its
// Enable.
func (sh moveShape) runSteps(t *testing.T, fault *faultPoint) (*faultFixture, []faultPoint, []faultPoint, error) {
	t.Helper()
	fx := newFaultFixture(t, sh.strategy)
	sh.prepare(t, fx)
	before, stepsBefore := map[string]int{}, map[string]int{}
	for st, sa := range fx.agents {
		before[st], stepsBefore[st] = len(sa.callLog()), len(sa.stepLog())
	}
	if fault != nil {
		fx.agents[fault.station].failNth(fault.method, fault.nth)
	}
	err := sh.op(t, fx)
	stations := make([]string, 0, len(fx.agents))
	for st := range fx.agents {
		stations = append(stations, st)
	}
	sort.Strings(stations)
	points := func(log func(*scriptedAgent) []string, from map[string]int) []faultPoint {
		var out []faultPoint
		for _, st := range stations {
			seen := map[string]int{}
			for _, method := range log(fx.agents[st])[from[st]:] {
				seen[method]++
				out = append(out, faultPoint{st, method, seen[method]})
			}
		}
		return out
	}
	return fx, points((*scriptedAgent).callLog, before), points((*scriptedAgent).stepLog, stepsBefore), err
}

func TestMoveFaultTable(t *testing.T) {
	for _, sh := range moveShapes {
		t.Run(sh.name, func(t *testing.T) {
			_, points, steps, err := sh.runSteps(t, nil)
			if err != nil {
				t.Fatalf("fault-free run failed: %v", err)
			}
			if len(points) != sh.rpcs {
				t.Fatalf("fault-free run issued %d RPCs, want %d: %v", len(points), sh.rpcs, points)
			}
			if got := orderOf(points); sh.order != "" && got != sh.order {
				t.Fatalf("fault-free run issued\n\t%s, want\n\t%s", got, sh.order)
			}
			for _, other := range moveShapes {
				if other.name != sh.sameAs {
					continue
				}
				if _, want, _ := other.run(t, nil); orderOf(points) != orderOf(want) {
					t.Fatalf("fault-free run issued\n\t%s, the %q shape\n\t%s", orderOf(points), other.name, orderOf(want))
				}
			}
			for _, p := range steps {
				t.Run(p.String(), func(t *testing.T) { sh.verify(t, p) })
			}
		})
	}
}

// orderOf renders issued RPCs the way moveShape.order spells them.
func orderOf(points []faultPoint) string {
	var b strings.Builder
	station := ""
	for _, p := range points {
		if p.station != station {
			if station != "" {
				b.WriteString("; ")
			}
			station = p.station
			b.WriteString(station + ":")
		}
		b.WriteString(" " + strings.TrimPrefix(p.method, "agent."))
	}
	return b.String()
}

func (sh moveShape) verify(t *testing.T, fault faultPoint) {
	fx, issued, err := sh.run(t, &fault)
	failed := err != nil
	// The final removal of the source copy is best effort: the move
	// completes without it. Every other step is load bearing.
	sourceRemove := fault.method == agent.MethodRemove && fault.station == sh.source
	bestEffort := sourceRemove
	if sh.detours {
		// So is the detour: a source that will not re-point, or a station
		// that will not steer, leaves the move as it was without one. Not
		// so its clearing — the source must not freeze with the client
		// still tunnelled into it.
		bestEffort = bestEffort ||
			fault == faultPoint{sh.source, agent.MethodRetarget, 1} ||
			fault == faultPoint{sh.target, agent.MethodSteer, 1}
	}
	if failed == bestEffort {
		t.Fatalf("move error = %v, want failure = %v; RPCs: %v", err, !bestEffort, issued)
	}
	for _, dep := range sh.moving {
		home := sh.target
		if at, ok := sh.targets[dep]; ok {
			home = at
		}
		if failed {
			home = sh.source
		}
		for st, sa := range fx.agents {
			enabled, present := sa.hosts(dep)
			switch {
			case fx.dead[st]:
			case st == home:
				if !present || !enabled {
					t.Errorf("%s at its home %s: present=%v enabled=%v, want serving; RPCs: %v", dep, st, present, enabled, issued)
				}
			case failed && present:
				t.Errorf("failed move left a copy of %s on %s (enabled=%v); RPCs: %v", dep, st, enabled, issued)
			case enabled && !(sourceRemove && st == sh.source):
				t.Errorf("%s also enabled on %s; RPCs: %v", dep, st, issued)
			}
		}
		placed := ""
		for _, pl := range fx.mgr.Placements() {
			if pl.Client == "phone" && pl.Chain == dep {
				placed = pl.Station
			}
		}
		if placed != home {
			t.Errorf("placement of %s = %q, want %q", dep, placed, home)
		}
	}
	// The client's traffic enters where the rule says for the placements
	// the move left, whichever RPC failed.
	at, via, legs := fx.mgr.Rendered("phone")
	for st, sa := range fx.agents {
		if fx.dead[st] {
			continue
		}
		want := ""
		if st == at {
			want = via
		}
		if got, _ := sa.detour("phone"); got != want {
			t.Errorf("%s steers phone toward %q, the rule says %q; RPCs: %v", st, got, want, issued)
		}
		for _, dep := range sh.moving {
			// A source copy whose removal failed lingers as it was frozen.
			if _, present := sa.hosts(dep); !present || (sourceRemove && st == sh.source) || strings.Contains(dep, "#") {
				continue
			}
			if got := sa.leg(dep, "ingress"); got != legs[dep+"@"+st] {
				t.Errorf("%s's ingress leg on %s rides the tunnel to %q, the rule says %q; RPCs: %v", dep, st, got, legs[dep+"@"+st], issued)
			}
		}
	}
	if sh.check != nil {
		sh.check(t, fx, failed)
	}
}

// TestRecallFailureRollsBack is the regression test for RecallClient's
// missing rollback: a failed import or Enable at the edge used to return
// with the cloud copy frozen and the half-deployed edge copy leaked. The
// edge's import rides its Enable; the cloud's freeze rides its last
// Checkpoint, and a failed one may have frozen the copy all the same.
func TestRecallFailureRollsBack(t *testing.T) {
	for _, row := range []struct{ station, method string }{
		{"st-src", agent.MethodRestore},
		{"st-src", agent.MethodEnable},
		{"nimbus", agent.MethodCheckpoint},
	} {
		t.Run(row.method, func(t *testing.T) {
			fx := newFaultFixture(t, manager.StrategyStateful)
			fx.attach(t, "chain")
			if _, err := fx.mgr.OffloadClient("phone", "nimbus"); err != nil {
				t.Fatal(err)
			}
			edge, cloud := fx.agents["st-src"], fx.agents["nimbus"]
			fx.agents[row.station].failOn(row.method)
			if _, err := fx.mgr.RecallClient("phone"); err == nil || !strings.Contains(err.Error(), "scripted failure") {
				t.Fatalf("recall error = %v, want the scripted failure", err)
			}
			if !cloud.sawAfter(agent.MethodEnable, agent.MethodCheckpoint) {
				t.Errorf("cloud copy never re-enabled after its freeze; calls: %v", cloud.callLog())
			}
			if enabled, present := cloud.hosts("chain"); !present || !enabled {
				t.Errorf("cloud copy present=%v enabled=%v after the failed recall; calls: %v", present, enabled, cloud.callLog())
			}
			if !edge.sawAfter(agent.MethodRemove, agent.MethodDeploy) {
				t.Errorf("half-deployed edge copy never removed; calls: %v", edge.callLog())
			}
			if got := fx.mgr.Offloaded("phone"); got != "nimbus" {
				t.Errorf("Offloaded = %q after a failed recall, want nimbus", got)
			}
		})
	}
}

// TestFailoverRetargetFailureIsReported is the regression test for
// revival swallowing a failed downstream Retarget: the report used to
// claim recovery while the anchored segment's return path still rode a
// tunnel toward the dead station.
func TestFailoverRetargetFailureIsReported(t *testing.T) {
	fx := newFaultFixture(t, manager.StrategyStateful)
	attachSplit(t, fx)
	fx.agents["st-agg"].failOn(agent.MethodRetarget)
	fx.kill(t, "st-src")

	var head *manager.FailoverReport
	for _, rep := range fx.mgr.CheckFailures() {
		if rep.Chain == splitChain {
			head = &rep
		}
	}
	if head == nil {
		t.Fatalf("no failover report for %s", splitChain)
	}
	if head.Err == "" || head.Recovered != 0 {
		t.Fatalf("report claims recovery despite the failed splice: %+v", *head)
	}
	if _, present := fx.agents[head.To].hosts(splitChain); present {
		t.Errorf("unspliced head left deployed on %s", head.To)
	}
}

// TestDeadOffloadSiteRevivesEveryChain kills the cloud site hosting two of a
// client's chains. The first revival renders the client's table while the
// other head still sits on the dead site: that head's leg died with its
// station, so re-pointing it must not fail the revival.
func TestDeadOffloadSiteRevivesEveryChain(t *testing.T) {
	fx := newFaultFixture(t, manager.StrategyStateful)
	fx.attach(t, "chain-a")
	fx.attach(t, "chain-b")
	if _, err := fx.mgr.OffloadClient("phone", "nimbus"); err != nil {
		t.Fatal(err)
	}
	fx.kill(t, "nimbus")
	reps := fx.mgr.CheckFailures()
	if len(reps) != 2 {
		t.Fatalf("failover reports = %+v, want one per chain", reps)
	}
	for _, rep := range reps {
		if rep.Err != "" || rep.To != "st-src" {
			t.Errorf("%s revived on %q, err %q; want st-src, the client's station", rep.Chain, rep.To, rep.Err)
		}
	}
	src := fx.agents["st-src"]
	for _, chain := range []string{"chain-a", "chain-b"} {
		if enabled, present := src.hosts(chain); !enabled || !present || src.leg(chain, "ingress") != "" {
			t.Errorf("%s on st-src: present=%v enabled=%v ingress=%q, want serving on its edge", chain, present, enabled, src.leg(chain, "ingress"))
		}
	}
	for st, sa := range fx.agents {
		if via, steered := sa.detour("phone"); steered && !fx.dead[st] {
			t.Errorf("%s still steers phone toward %s", st, via)
		}
	}
	if site := fx.mgr.Offloaded("phone"); site != "" {
		t.Errorf("still offloaded to %s", site)
	}
}

// TestHandoffBouncesBackWhileDetoured pins a live handoff mid pre-copy —
// the detour is in, the target is booting — and has the client return to
// the source station. The move in flight must still take its own detour
// out, the move home (a second detour, the other way) likewise, and the
// chain must end up serving where the client is.
func TestHandoffBouncesBackWhileDetoured(t *testing.T) {
	fx := newFaultFixture(t, manager.StrategyLive)
	fx.attach(t, "chain")
	src, dst := fx.agents["st-src"], fx.agents["st-dst"]
	event := func(sa *scriptedAgent, connected bool) {
		t.Helper()
		if err := sa.peer.Call(agent.MethodClientEvent,
			agent.ClientEvent{Station: sa.station, Client: "phone", Connected: connected}, nil); err != nil {
			t.Fatal(err)
		}
	}

	gate := src.holdOn(agent.MethodCheckpoint)
	event(dst, true)
	<-gate.entered
	if via, steered := dst.detour("phone"); !steered || via != "st-src" {
		t.Fatalf("mid-move: st-dst detours phone toward %q (steered=%v), want st-src", via, steered)
	}
	if via := src.leg("chain", "ingress"); via != "st-dst" {
		t.Fatalf("mid-move: the source's client leg points at %q, want the tunnel to st-dst", via)
	}
	event(dst, false)
	event(src, true)
	close(gate.release)
	fx.mgr.WaitIdle()

	migs := fx.mgr.Migrations()
	if len(migs) != 2 || migs[0].Err != "" || migs[1].Err != "" || migs[1].To != "st-src" {
		t.Fatalf("migrations = %+v, want st-src -> st-dst -> st-src", migs)
	}
	for st, sa := range fx.agents {
		if via, steered := sa.detour("phone"); steered {
			t.Errorf("%s still detours phone toward %s", st, via)
		}
		enabled, present := sa.hosts("chain")
		if want := st == "st-src"; present != want || enabled != want {
			t.Errorf("chain on %s: present=%v enabled=%v", st, present, enabled)
		}
	}
	if n := len(fx.mgr.Journal().Events(0, trace.EventDetour)); n != 2 {
		t.Errorf("%d detours journaled, want one per move", n)
	}
}

// TestSecondChainOfAClientIsNotDetoured hands off a client with two chains.
// They move one after another, and a detour takes all of the client's
// traffic: only the first move may send it back to the source — during the
// second it would ride past the chain that has just landed.
func TestSecondChainOfAClientIsNotDetoured(t *testing.T) {
	fx := newFaultFixture(t, manager.StrategyLive)
	fx.attach(t, "chain-a")
	fx.attach(t, "chain-b")
	fx.announce(t, "st-dst")

	migs := fx.mgr.Migrations()
	if len(migs) != 2 || migs[0].Err != "" || migs[1].Err != "" {
		t.Fatalf("migrations = %+v, want both chains moved", migs)
	}
	// At the client's station the detour comes out (the first move's
	// freeze) before anything is enabled there.
	var steers, unsteers, enabled int
	for _, call := range fx.agents["st-dst"].callLog() {
		switch call {
		case agent.MethodSteer:
			steers++
		case agent.MethodUnsteer:
			unsteers++
			if enabled != 0 {
				t.Errorf("the detour outlived a chain's Enable at st-dst: %v", fx.agents["st-dst"].callLog())
			}
		case agent.MethodEnable:
			enabled++
		}
	}
	if steers != 1 || unsteers != 1 || enabled != 2 {
		t.Errorf("st-dst saw %d Steer, %d Unsteer, %d Enable, want 1, 1, 2: %v",
			steers, unsteers, enabled, fx.agents["st-dst"].callLog())
	}
	if n := len(fx.mgr.Journal().Events(0, trace.EventDetour)); n != 1 {
		t.Errorf("%d detours journaled, want the first move's only", n)
	}
	for st, sa := range fx.agents {
		if via, steered := sa.detour("phone"); steered {
			t.Errorf("%s still detours phone toward %s", st, via)
		}
		for _, chain := range []string{"chain-a", "chain-b"} {
			if via := sa.leg(chain, "ingress"); via != "" {
				t.Errorf("%s's client leg on %s still rides the tunnel to %s", chain, st, via)
			}
		}
	}
}

// TestEmptyChainStillRoams: a chain of no functions partitions into no
// segments at all, and is nonetheless a deployment that follows its client.
func TestEmptyChainStillRoams(t *testing.T) {
	fx := newFaultFixture(t, manager.StrategyStateful)
	if err := fx.mgr.AttachChain("phone", manager.ChainSpec{Name: "chain"}); err != nil {
		t.Fatal(err)
	}
	if err := roamToDst(t, fx); err != nil {
		t.Fatal(err)
	}
	if enabled, present := fx.agents["st-dst"].hosts("chain"); !present || !enabled {
		t.Errorf("empty chain on st-dst after the handoff: present=%v enabled=%v", present, enabled)
	}
	if _, err := fx.mgr.MigrateSegment("phone", "chain", 0, "st-src"); err != nil {
		t.Errorf("operator move of an empty chain: %v", err)
	}
}

// TestDetachRacingAMoveLeavesNothingBehind pins an operator move at its last
// target-side RPC — the source is frozen and checkpointed, only its removal
// is left — and detaches the chain. The detach used to take the chain out of
// the record and remove the source copy; the move then committed and placed a
// chain that was no longer attached, leaving the target copy serving,
// invisible to Placements() and in the way of a re-attach.
func TestDetachRacingAMoveLeavesNothingBehind(t *testing.T) {
	fx := newFaultFixture(t, manager.StrategyStateful)
	fx.attach(t, "chain")
	gate := fx.agents["st-dst"].holdOn(agent.MethodEnable)
	moved, detached := make(chan error, 1), make(chan error, 1)
	go func() { moved <- migrateToDst(t, fx) }()
	<-gate.entered
	go func() { detached <- fx.mgr.DetachChain("phone", "chain") }()
	// The detach either runs into the window (and must not be there) or
	// waits the move out; nothing signals the latter, so give it time.
	select {
	case err := <-detached:
		detached <- err
	case <-time.After(100 * time.Millisecond):
	}
	close(gate.release)
	if err := <-moved; err != nil {
		t.Errorf("move: %v", err)
	}
	if err := <-detached; err != nil {
		t.Errorf("detach: %v", err)
	}

	for st, sa := range fx.agents {
		if enabled, present := sa.hosts("chain"); present {
			t.Errorf("%s still hosts the detached chain (enabled=%v); calls: %v", st, enabled, sa.callLog())
		}
	}
	if pl := fx.mgr.Placements(); len(pl) != 0 {
		t.Errorf("placements after the detach: %+v", pl)
	}
	fx.attach(t, "chain")
	if enabled, present := fx.agents["st-src"].hosts("chain"); !present || !enabled {
		t.Errorf("re-attached chain on st-src: present=%v enabled=%v", present, enabled)
	}
}
