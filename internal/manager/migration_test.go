package manager_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/manager"
	"gnf/internal/wire"
)

// scriptedAgent is a wire-level fake station: it serves the agent.* RPC
// surface, records every call in order, fails the steps listed in fail
// (or one chosen step, failNth), and keeps a model of what a real agent
// would host after the calls it acknowledged — the instrument for
// exercising the manager's migration rollback paths without a dataplane.
type scriptedAgent struct {
	t       *testing.T
	peer    scriptedPeer
	station string

	mu    sync.Mutex
	calls []string
	// steps logs what the station did for those calls (stepsOf): a fault
	// is armed on a step, by the name of the method that does it alone.
	steps  []string
	fail   map[string]bool
	failAt map[string]int // step -> occurrences left until the one that fails
	gates  map[string]*agentGate
	// hosted maps each deployment this station holds to whether it is
	// enabled; legs holds the station a Deploy or Retarget last pointed a leg
	// at, keyed "chain ingress" or "chain egress";
	// detours maps each client steered here to the station its traffic is
	// tunnelled toward. A failed call changes none of them, but for the
	// steps it did before the one that failed.
	hosted  map[string]bool
	legs    map[string]string
	detours map[string]string
	// pooling makes the station answer every deploy as an attachment to a
	// shared instance.
	pooling bool
}

// scriptedPeer is the fake station's connection to the manager. Like a real
// agent (Agent.DetachClient), the station drops a client's steer as it
// reports the client gone.
type scriptedPeer struct {
	*wire.Peer
	sa *scriptedAgent
}

func (p scriptedPeer) Call(method string, in, out any) error {
	if ev, ok := in.(agent.ClientEvent); ok && method == agent.MethodClientEvent && !ev.Connected {
		p.sa.mu.Lock()
		delete(p.sa.detours, ev.Client)
		p.sa.mu.Unlock()
	}
	return p.Peer.Call(method, in, out)
}

// agentGate parks a method's handler: entered closes when the first call
// arrives, and the handler then blocks until release closes — the
// instrument for pinning an RPC mid-flight while something else races it.
type agentGate struct {
	entered, release chan struct{}
	once             sync.Once
}

func newScriptedAgent(t *testing.T, mgr *manager.Manager, station string) *scriptedAgent {
	t.Helper()
	return dialScriptedAgent(t, mgr, agent.RegisterSpec{Station: station})
}

func dialScriptedAgent(t *testing.T, mgr *manager.Manager, reg agent.RegisterSpec) *scriptedAgent {
	t.Helper()
	peer, err := wire.Dial(mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sa := &scriptedAgent{t: t, station: reg.Station,
		fail: map[string]bool{}, failAt: map[string]int{}, gates: map[string]*agentGate{},
		hosted: map[string]bool{}, legs: map[string]string{}, detours: map[string]string{}}
	sa.peer = scriptedPeer{peer, sa}
	handle := func(method string, result any) {
		peer.HandleBlob(method, func(_ string, body json.RawMessage, blob []byte) (any, error) {
			steps := stepsOf(method, body, blob)
			failed := sa.record(method, steps)
			for _, step := range steps[:failed] {
				sa.apply(step, body)
			}
			if failed < len(steps) {
				return nil, fmt.Errorf("%s: scripted failure", steps[failed])
			}
			if answer, ok := result.(func() any); ok {
				return answer(), nil
			}
			return result, nil
		})
	}
	handle(agent.MethodDeploy, func() any {
		sa.mu.Lock()
		defer sa.mu.Unlock()
		return agent.DeployResult{Shared: sa.pooling}
	})
	for _, m := range []string{agent.MethodRemove, agent.MethodEnable,
		agent.MethodDisable, agent.MethodRestore,
		agent.MethodRetarget, agent.MethodSteer, agent.MethodSteerBatch, agent.MethodUnsteer} {
		handle(m, nil)
	}
	handle(agent.MethodCheckpoint, agent.CheckpointResult{State: []byte("blob"), Round: 1})
	go peer.Run()
	if err := peer.Call(agent.MethodRegister, reg, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	return sa
}

// stepsOf names what a station does for one call, in order. Like a real
// agent, a freezing checkpoint stops the chain (a Disable's work) before it
// exports, and an Enable carrying a move's last export imports it (a
// Restore's work) before it goes live: either step of the two can fail.
func stepsOf(method string, body json.RawMessage, blob []byte) []string {
	var spec agent.CheckpointSpec
	switch {
	case method == agent.MethodCheckpoint && json.Unmarshal(body, &spec) == nil && spec.Freeze:
		return []string{agent.MethodDisable, method}
	case method == agent.MethodEnable && len(blob) > 0:
		return []string{agent.MethodRestore, method}
	}
	return []string{method}
}

// record logs the call and its steps up to the first that should fail,
// parks on the method's armed gate, and returns the index of the failing
// step (len(steps) when none fails).
func (sa *scriptedAgent) record(method string, steps []string) int {
	sa.mu.Lock()
	sa.calls = append(sa.calls, method)
	failed := len(steps)
	for i, step := range steps {
		sa.steps = append(sa.steps, step)
		fail := sa.fail[step]
		if n := sa.failAt[step]; n > 0 {
			sa.failAt[step] = n - 1
			fail = fail || n == 1
		}
		if fail {
			failed = i
			break
		}
	}
	g := sa.gates[method]
	sa.mu.Unlock()
	if g != nil {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return failed
}

// apply folds one completed step into the hosting model; body is the
// request of the call that did it.
func (sa *scriptedAgent) apply(method string, body json.RawMessage) {
	var dep agent.DeploySpec
	var ref agent.ChainRef
	var rt agent.RetargetSpec
	var steer agent.SteerSpec
	var batch agent.SteerBatchSpec
	sa.mu.Lock()
	defer sa.mu.Unlock()
	switch method {
	case agent.MethodDeploy:
		if json.Unmarshal(body, &dep) == nil {
			sa.hosted[dep.Chain] = dep.Enabled
			sa.legs[dep.Chain+" ingress"], sa.legs[dep.Chain+" egress"] = dep.Ingress.Station, dep.Egress.Station
		}
	case agent.MethodEnable, agent.MethodDisable:
		if json.Unmarshal(body, &ref) == nil {
			if _, ok := sa.hosted[ref.Chain]; ok {
				sa.hosted[ref.Chain] = method != agent.MethodDisable
			}
		}
	case agent.MethodRemove:
		if json.Unmarshal(body, &ref) == nil {
			delete(sa.hosted, ref.Chain)
			for _, which := range []string{" ingress", " egress"} {
				delete(sa.legs, ref.Chain+which)
			}
		}
	case agent.MethodRetarget:
		if json.Unmarshal(body, &rt) == nil {
			if rt.Ingress != nil {
				sa.legs[rt.Chain+" ingress"] = rt.Ingress.Station
			}
			if rt.Egress != nil {
				sa.legs[rt.Chain+" egress"] = rt.Egress.Station
			}
		}
	case agent.MethodSteer:
		if json.Unmarshal(body, &steer) == nil {
			sa.detours[steer.Client] = steer.Via
		}
	case agent.MethodSteerBatch:
		if json.Unmarshal(body, &batch) == nil {
			for _, r := range batch.Rules {
				sa.detours[r.Client] = r.Via
			}
		}
	case agent.MethodUnsteer:
		// UnsteerSpec is SteerSpec without the via.
		if json.Unmarshal(body, &steer) == nil {
			delete(sa.detours, steer.Client)
		}
	}
}

// detour reports the station the client's traffic is steered toward here.
func (sa *scriptedAgent) detour(client string) (via string, steered bool) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	via, steered = sa.detours[client]
	return via, steered
}

// hosts reports whether the station holds the deployment, and enabled.
func (sa *scriptedAgent) hosts(chain string) (enabled, present bool) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	enabled, present = sa.hosted[chain]
	return enabled, present
}

// leg reports the station a Deploy or Retarget last pointed the chain's
// "ingress" or "egress" leg at ("" = the edge).
func (sa *scriptedAgent) leg(chain, which string) string {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.legs[chain+" "+which]
}

// pool makes the station's deploys from now on report shared attachments.
func (sa *scriptedAgent) pool() {
	sa.mu.Lock()
	sa.pooling = true
	sa.mu.Unlock()
}

// failNth makes the nth step of the method's name from now on (1-based)
// fail, once.
func (sa *scriptedAgent) failNth(method string, n int) {
	sa.mu.Lock()
	sa.failAt[method] = n
	sa.mu.Unlock()
}

// holdOn arms a gate on the method's next call.
func (sa *scriptedAgent) holdOn(method string) *agentGate {
	g := &agentGate{entered: make(chan struct{}), release: make(chan struct{})}
	sa.mu.Lock()
	sa.gates[method] = g
	sa.mu.Unlock()
	return g
}

func (sa *scriptedAgent) failOn(method string) {
	sa.mu.Lock()
	sa.fail[method] = true
	sa.mu.Unlock()
}

func (sa *scriptedAgent) callLog() []string {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return append([]string(nil), sa.calls...)
}

func (sa *scriptedAgent) stepLog() []string {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return append([]string(nil), sa.steps...)
}

// sawAfter reports whether method appears in the call log at or after the
// first occurrence of marker ("" = anywhere).
func (sa *scriptedAgent) sawAfter(method, marker string) bool {
	seenMarker := marker == ""
	for _, c := range sa.callLog() {
		if c == marker {
			seenMarker = true
		}
		if seenMarker && c == method {
			return true
		}
	}
	return false
}

// migrationFixture wires a manager with two scripted stations and one
// client whose chain is deployed on st-src.
func migrationFixture(t *testing.T, strategy manager.Strategy) (*manager.Manager, *scriptedAgent, *scriptedAgent) {
	t.Helper()
	mgr, err := manager.New(clock.System(), "127.0.0.1:0", manager.WithStrategy(strategy))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	src := newScriptedAgent(t, mgr, "st-src")
	dst := newScriptedAgent(t, mgr, "st-dst")

	// Announce the client on st-src, then attach the chain there.
	if err := src.peer.Call(agent.MethodClientEvent,
		agent.ClientEvent{Station: "st-src", Client: "phone", Connected: true}, nil); err != nil {
		t.Fatal(err)
	}
	mgr.WaitIdle()
	spec := manager.ChainSpec{Name: "chain", Functions: []agent.NFSpec{{Kind: "counter", Name: "c0"}}}
	if err := mgr.AttachChain("phone", spec); err != nil {
		t.Fatal(err)
	}
	return mgr, src, dst
}

// TestStatefulEnableFailureRollsBack is the regression test for the
// rollback hole: a failed MethodEnable on the target (which imports the
// source's last export, then goes live) used to return without
// re-enabling the source or removing the half-deployed target, leaving the
// client dark on both ends.
func TestStatefulEnableFailureRollsBack(t *testing.T) {
	mgr, src, dst := migrationFixture(t, manager.StrategyStateful)
	dst.failOn(agent.MethodEnable)

	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err == nil || rep.Err == "" {
		t.Fatalf("migration unexpectedly succeeded: %+v", rep)
	}
	if !src.sawAfter(agent.MethodEnable, agent.MethodCheckpoint) {
		t.Fatalf("source never re-enabled after freeze; calls: %v", src.callLog())
	}
	if !dst.sawAfter(agent.MethodRemove, agent.MethodEnable) {
		t.Fatalf("half-deployed target never removed; calls: %v", dst.callLog())
	}
	// The placement record must still point at the source.
	for _, pl := range mgr.Placements() {
		if pl.Chain == "chain" && pl.Station != "st-src" {
			t.Fatalf("placement moved despite rollback: %+v", pl)
		}
	}
}

// TestLiveActivateFailureRollsBack checks the same guarantee on the live
// pipeline's last step.
func TestLiveActivateFailureRollsBack(t *testing.T) {
	mgr, src, dst := migrationFixture(t, manager.StrategyLive)
	dst.failOn(agent.MethodEnable)

	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err == nil || rep.Err == "" {
		t.Fatalf("migration unexpectedly succeeded: %+v", rep)
	}
	if enabled, present := src.hosts("chain"); !present || !enabled {
		t.Fatalf("source left present=%v enabled=%v; calls: %v", present, enabled, src.callLog())
	}
	if !src.sawAfter(agent.MethodEnable, agent.MethodCheckpoint) {
		t.Fatalf("source never re-enabled after freeze; calls: %v", src.callLog())
	}
	if !dst.sawAfter(agent.MethodRemove, agent.MethodEnable) {
		t.Fatalf("half-synced target never removed; calls: %v", dst.callLog())
	}
}

// TestLiveSyncFailureRollsBackBeforeFreeze checks rollback when a
// pre-copy round fails while the source still serves: the source is never
// frozen, and the target is cleaned up.
func TestLiveSyncFailureRollsBackBeforeFreeze(t *testing.T) {
	mgr, src, dst := migrationFixture(t, manager.StrategyLive)
	dst.failOn(agent.MethodRestore)

	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err == nil || rep.Err == "" {
		t.Fatalf("migration unexpectedly succeeded: %+v", rep)
	}
	// Round one's export is the only checkpoint: no freezing one followed.
	if n := countCalls(src, agent.MethodCheckpoint); n != 1 {
		t.Fatalf("source checkpointed %d times although pre-copy never converged; calls: %v", n, src.callLog())
	}
	if !dst.sawAfter(agent.MethodRemove, agent.MethodRestore) {
		t.Fatalf("target not removed after sync failure; calls: %v", dst.callLog())
	}
}

// TestLiveMigrationProtocolOrder pins the happy-path RPC sequence: deploy
// and pre-copy rounds before the freeze, then the freezing export at the
// source and the target's Enable, which imports it, inside it, and source
// removal after.
func TestLiveMigrationProtocolOrder(t *testing.T) {
	mgr, src, dst := migrationFixture(t, manager.StrategyLive)
	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 1 || rep.Err != "" {
		t.Fatalf("report = %+v", rep)
	}
	// Source: checkpoint (per round) ... checkpoint (freeze + residual) ... remove.
	wantSrc := []string{agent.MethodCheckpoint, agent.MethodCheckpoint, agent.MethodRemove}
	srcLog := src.callLog()
	i := 0
	for _, c := range srcLog {
		if i < len(wantSrc) && c == wantSrc[i] {
			i++
		}
	}
	if i != len(wantSrc) {
		t.Fatalf("source order %v missing subsequence %v", srcLog, wantSrc)
	}
	// Target: deploy ... restore (per round) ... enable (residual import).
	wantDst := []string{agent.MethodDeploy, agent.MethodRestore, agent.MethodEnable}
	dstLog := dst.callLog()
	i = 0
	for _, c := range dstLog {
		if i < len(wantDst) && c == wantDst[i] {
			i++
		}
	}
	if i != len(wantDst) {
		t.Fatalf("target order %v missing subsequence %v", dstLog, wantDst)
	}
	if n := countCalls(dst, agent.MethodRestore); n != rep.Rounds {
		t.Fatalf("target restored %d times for %d rounds: %v", n, rep.Rounds, dstLog)
	}
	if n := countCalls(src, agent.MethodDisable); n != 0 {
		t.Fatalf("source disabled outside its freezing checkpoint: %v", srcLog)
	}
}

// TestColdDowntimeAccountsActualDarkWindow is the regression test for the
// downtime accounting fix: with a live source the old chain serves until
// MethodRemove while the target deploys enabled first (make-before-break),
// so the reported dark window must be zero — not the deploy duration.
func TestColdDowntimeAccountsActualDarkWindow(t *testing.T) {
	mgr, src, dst := migrationFixture(t, manager.StrategyCold)
	rep, err := mgr.MigrateChain("phone", "chain", "st-dst")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Downtime != 0 {
		t.Fatalf("cold migration with live source reported %v downtime, want 0", rep.Downtime)
	}
	if rep.Total <= 0 {
		t.Fatalf("total = %v, want > 0", rep.Total)
	}
	if !dst.sawAfter(agent.MethodDeploy, "") {
		t.Fatalf("target never deployed: %v", dst.callLog())
	}
	// Make-before-break: the target deploy precedes the source removal.
	deployAt, removeAt := -1, -1
	for i, c := range dst.callLog() {
		if c == agent.MethodDeploy && deployAt == -1 {
			deployAt = i
		}
	}
	for i, c := range src.callLog() {
		if c == agent.MethodRemove && removeAt == -1 {
			removeAt = i
		}
	}
	if deployAt == -1 || removeAt == -1 {
		t.Fatalf("deploy/remove missing: dst=%v src=%v", dst.callLog(), src.callLog())
	}
}
