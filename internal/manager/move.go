// The move engine: the one place a deployment moves between stations.
//
// §2's function roaming — "an equivalent function can be started on the
// newly assigned cell and removed from the previous cell" — plus optional
// state transfer, is a single step list:
//
//	deploy at target → carry state, switching the client's traffic over to
//	the target as the source freezes inside its last export → import that
//	export and enable, in one call → re-splice the legs that name a placed
//	peer → remove source
//
// Handoffs, operator migrations, station evacuation, attach, GNFC offload
// and recall, split-chain segment moves and failover revival all run that
// list; what genuinely differs between them is data in the movePlan, not
// code, and every plan is built in one place (moveSegment). Attach, offload
// and recall move their deployments as one transaction (moveAll).
// Where the client's traffic enters is not a step but the renderer's answer
// (render, placed.go), asked again at the switch-over with the target landed:
// a source serving the client keeps serving while the target boots, and the
// target replays what it parked from the switch-over on.
//
// Every completed step pushes its inverse onto one undo log; any failure
// unwinds the log in reverse. "Re-enable the source, remove the target"
// is therefore written exactly once, and a step added to the list gets
// its rollback on every path by construction.
package manager

import (
	"errors"
	"fmt"
	"time"

	"gnf/internal/agent"
	"gnf/internal/clock"
	"gnf/internal/trace"
)

// Pre-copy tuning: rounds stop as soon as a delta underruns the
// convergence threshold (the residual the freeze must ship is then at most
// that small) or when the round budget exhausts — a chain whose state
// churns faster than the pipeline drains never converges, and capping the
// rounds bounds the total transfer at maxRounds full-state equivalents.
const (
	precopyMaxRounds      = 8
	precopyConvergedBytes = 2048
)

// movePlan describes one move of one deployment.
type movePlan struct {
	// rec is the record of the client deploy.Client names.
	rec *clientRec
	dep deployment
	// from is the station the deployment leaves ("" = no source: failover
	// revives chains whose state died with their station); to is where it
	// lands.
	from, to string
	strategy Strategy
	// deploy is the target-side spec: name, functions, addressing and the
	// two legs. Enabled belongs to the engine.
	deploy agent.DeploySpec
	// splice marks the legs (ingress, egress) whose Peer deployment is
	// re-spliced: once the target serves, that neighbour's facing leg is
	// pointed at it.
	splice [2]bool
	// deferred leaves the source in place once the target serves, and the
	// client's traffic where it is: the caller switches it (moveAll's flip).
	deferred bool
}

// pendingMove is what a deferred move hands back instead of finishing:
// commit removes the source copy, undo unwinds every step taken so far, and
// landed is the target copy for the caller's render.
type pendingMove struct {
	commit, undo func()
	landed       landed
}

// async starts fn and returns its join: the first call waits for fn, later
// calls repeat its result. join is for one goroutine's use.
func async(fn func() error) (join func() error) {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	var err error
	joined := false
	return func() error {
		if !joined {
			err, joined = <-ch, true
		}
		return err
	}
}

// move executes one plan. Downtime is measured on the manager clock as the
// actual dark window, the span during which no instance could serve the
// client's traffic: freeze → enable for a state-carrying move (from the
// switch-over, when there is one: from there the client's frames park at
// the target), the target's boot for
// a cold move whose source is gone, and zero for a cold move with a live
// source (the target deploys enabled while the old instance still serves —
// make-before-break; state is still lost, that is cold migration's trade).
// A non-nil pendingMove means the plan asked to stop short (deferred) and
// did so successfully; on failure the log has already been unwound.
func (m *Manager) move(tctx trace.Context, p movePlan) (rep MigrationReport, pending *pendingMove) {
	name := p.deploy.Chain
	chain := agent.ChainRef{Chain: name}
	rep = MigrationReport{
		Client: p.deploy.Client, Chain: name, From: p.from, To: p.to, Strategy: p.strategy,
	}
	// The migration decision span: per-step RPC spans (checkpoints,
	// restores, the enable) nest under it on both sides of the wire.
	sp := m.tracer.Child(tctx, "manager.migrate")
	sp.SetAttr("chain", name)
	sp.SetAttr("from", p.from)
	sp.SetAttr("to", p.to)
	sp.SetAttr("strategy", string(p.strategy))
	tctx = sp.Context()
	if tctx.Recording() {
		rep.TraceID = tctx.TraceID
	}
	defer func() {
		if rep.Err != "" {
			sp.End(errors.New(rep.Err))
		} else {
			sp.End(nil)
		}
	}()
	// The undo log: inverses of the completed steps, run newest-first. Each
	// is best effort — a rollback step that fails has no further fallback.
	var undo []func()
	unwind := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		undo = nil
	}
	fail := func(err error) (MigrationReport, *pendingMove) {
		unwind()
		rep.Err = err.Error()
		return rep, nil
	}

	target, err := m.agentFor(p.to)
	if err != nil {
		return fail(err)
	}
	var source *AgentHandle
	if p.from != "" {
		// An unreachable source is not an error: its station is gone, and
		// the chain must come back somewhere regardless.
		source, _ = m.agentFor(p.from)
	}
	// What the move can carry. Anything but a state-carrying strategy moves
	// cold, §2's baseline; so does any move without a reachable source, as
	// no state can ship. A state-carrying move pre-copies up to rounds times
	// while the source serves: stop-and-copy is the live move with none.
	carry := p.strategy
	if (carry != StrategyStateful && carry != StrategyLive) || source == nil {
		carry = StrategyCold
	}
	rounds := 0
	if carry == StrategyLive {
		rounds = precopyMaxRounds
	}
	total := clock.NewStopwatch(m.clk)
	for _, leg := range []agent.Leg{p.deploy.Ingress, p.deploy.Egress} {
		if err := m.ensureTunnel(leg.Station, p.to); err != nil {
			return fail(err)
		}
	}

	// Stage the target beside the first source-side step — unless the source
	// serves the client (it is there, or steered onto the source's tunnel leg;
	// an anchored segment always serves) and no round runs: the target then
	// boots before the freeze. join resolves before state lands on the target.
	p.rec.mu.Lock()
	r := p.rec.rendered
	serving := p.dep.seg > 0 || p.from == p.rec.station || (r.at == p.rec.station && r.via == p.from && r.legs[p.dep] == r.at)
	p.rec.mu.Unlock()
	join := func() error { return nil }
	var boot time.Duration
	deploy := p.deploy
	deploy.Enabled = carry == StrategyCold
	stage := func() error {
		watch := clock.NewStopwatch(m.clk)
		var res agent.DeployResult
		err := target.callT(tctx, agent.MethodDeploy, deploy, &res)
		boot, rep.pooled = watch.Elapsed(), res.Shared
		return err
	}
	if carry == StrategyCold || (serving && rounds == 0) {
		if err := stage(); err != nil {
			return fail(err)
		}
	} else {
		// The deploy overlaps pre-copy round one, or with no round the
		// freeze.
		join = async(stage)
	}
	undo = append(undo, func() {
		// A target that never deployed needs no removal.
		if join() == nil {
			target.callT(tctx, agent.MethodRemove, chain, nil)
		}
	})
	// lands is the target copy as the renderer sees it once it is up.
	lands := func() landed { return landed{p.dep, placement{p.to, rep.pooled}, p.deploy.Ingress.Station} }
	// switchOver renders the client's traffic onto the target once it is up;
	// it is load-bearing, and the caller renders whatever the move leaves.
	switchOver := func() error {
		if p.deferred {
			return nil
		}
		return m.render(tctx, p.deploy.Client, p.rec, lands())
	}

	if carry == StrategyCold {
		// Make-before-break: the target serves before the source goes.
		if err := switchOver(); err != nil {
			return fail(err)
		}
		if source == nil {
			rep.Downtime = boot
		}
	} else {
		// Pre-copy while the source serves: round one restarts the session
		// and ships the full state, each later one what changed since. The
		// last export freezes the source first.
		export := func(spec agent.CheckpointSpec, out *agent.CheckpointResult) error {
			spec.Chain, spec.Restart = name, rep.Rounds == 0
			return source.callT(tctx, agent.MethodCheckpoint, spec, out)
		}
		for rep.Rounds < rounds {
			var pr agent.CheckpointResult
			if err := export(agent.CheckpointSpec{}, &pr); err != nil {
				return fail(err)
			}
			if err := join(); err != nil {
				return fail(err)
			}
			if err := target.callT(tctx, agent.MethodRestore, agent.RestoreSpec{Chain: name, State: pr.State}, nil); err != nil {
				return fail(err)
			}
			rep.Rounds++
			rep.PrecopyBytes += len(pr.State)
			if len(pr.State) <= precopyConvergedBytes {
				break
			}
		}
		// Freeze: what the rounds left — with none, the whole state, and for
		// a source that served nobody the rest of the target's boot — rides
		// inside the dark window, from the source's freezing export to the
		// target's Enable. A target that is up by now takes the client's
		// traffic at the freeze, parking it for Enable to replay, and the
		// source parks what is in flight to it; one still booting takes it
		// once joined.
		switched := rep.Rounds > 0 || (serving && !p.deferred)
		down := clock.NewStopwatch(m.clk)
		var residual agent.CheckpointResult
		var on agent.EnableResult
		var err error
		if switched {
			err = switchOver()
		}
		if err == nil {
			// From the freeze on every failure must bring the source back,
			// and a freeze that failed or timed out may have stopped it all
			// the same.
			undo = append(undo, func() { source.callT(tctx, agent.MethodEnable, chain, nil) })
			err = export(agent.CheckpointSpec{Freeze: true, Brownout: switched}, &residual)
		}
		// A failed deploy outranks a source-side failure: with no target
		// there was never anything to restore onto.
		if jerr := join(); jerr != nil {
			err = jerr
		}
		if err == nil && !switched {
			err = switchOver()
		}
		// Enable merges the residual, flips the target live and replays what
		// it parked.
		if err == nil {
			err = target.callT(tctx, agent.MethodEnable, agent.RestoreSpec{Chain: name, State: residual.State}, &on)
		}
		if err != nil {
			return fail(err)
		}
		rep.Downtime = down.Elapsed()
		rep.ResidualBytes = len(residual.State)
		rep.StateBytes = rep.PrecopyBytes + rep.ResidualBytes
		rep.ReplayedFrames = on.Replayed
	}

	// Re-splice: a leg that names a placed peer has that peer's facing leg —
	// the upstream neighbour's egress, the downstream neighbour's ingress —
	// pointed at the deployment's new station. Until both land, in-flight
	// frames still ride toward the old station and are dropped at a frozen
	// chain, the same transient every stop-and-copy has. A failed splice is a
	// failed move — the return path would ride a tunnel toward the station the
	// deployment just left.
	splice := func(peer agent.Leg, upstream bool, at string) error {
		h, err := m.agentFor(peer.Station)
		if err != nil {
			return err
		}
		spec, facing := agent.RetargetSpec{Chain: peer.Peer}, &agent.Leg{Station: at, Peer: name}
		if upstream {
			spec.Egress = facing
		} else {
			spec.Ingress = facing
		}
		return h.callT(tctx, agent.MethodRetarget, spec, nil)
	}
	for i, peer := range []agent.Leg{p.deploy.Ingress, p.deploy.Egress} {
		if !p.splice[i] {
			continue
		}
		if err := splice(peer, i == 0, p.to); err != nil {
			return fail(err)
		}
		if source != nil {
			undo = append(undo, func() { splice(peer, i == 0, p.from) })
		}
	}

	commit := func() {
		if source != nil {
			source.callT(tctx, agent.MethodRemove, chain, nil)
		}
		// If the source station re-registered while this move ran (a
		// kill/restart inside one storm window), the removal above went to a
		// dead handle — or, with no source handle, never ran — and the
		// station's rejoin GC may have announced the stale copy before this
		// move's placement update landed. Reap it on the fresh connection:
		// the deployment now lives on the target.
		if p.from != "" && p.from != p.to {
			if h, err := m.agentFor(p.from); err == nil && h != source {
				h.callT(tctx, agent.MethodRemove, chain, nil)
			}
		}
	}
	if p.deferred {
		rep.Total = total.Elapsed()
		return rep, &pendingMove{commit: commit, undo: unwind, landed: lands()}
	}
	commit()
	rep.Total = total.Elapsed()
	return rep, nil
}

// hop is one deployment's move, from "" (nowhere) or a station to a station.
type hop struct {
	dep      deployment
	from, to string
}

// moveSegment builds the plan of every move of one deployment of a client's
// chain and runs it. Callers hold rec.migMu, and so does DetachChain: a chain
// detached since the caller looked it up is refused here. A head moves under
// the caller's strategy with its client's addressing; an anchored segment
// moves stop-and-copy. A segment's legs name its neighbours where they run or
// land, and the move re-splices those already placed. Alone (tx nil), a move
// that succeeds is placed, and the table rendered either way. In a transaction
// (tx: each deployment it moves → where it lands) the move is deferred, and
// moveSegment hands back the pending move, placing and rendering nothing.
func (m *Manager) moveSegment(tctx trace.Context, client string, rec *clientRec, h hop, strategy Strategy, tx map[deployment]string) (MigrationReport, *pendingMove) {
	dep := h.dep
	p := movePlan{rec: rec, dep: dep, from: h.from, to: h.to, strategy: strategy, deferred: tx != nil}
	rec.mu.Lock()
	spec, attached := rec.chains[dep.chain]
	segs := SegmentsOf(spec)
	if attached && len(segs) == 0 {
		segs = []ChainSegment{{}} // a chain of no functions is one empty segment
	}
	if dep.seg < len(segs) {
		at := func(i int) string {
			if to, moving := tx[deployment{dep.chain, i}]; moving {
				return to
			}
			return rec.at(deployment{dep.chain, i})
		}
		p.deploy = segmentDeploy(client, rec.mac, rec.ip, dep.chain, segs, dep.seg, at)
		p.splice = [2]bool{rec.at(deployment{dep.chain, dep.seg - 1}) != "", rec.at(deployment{dep.chain, dep.seg + 1}) != ""}
	} else {
		attached = false // detached, or re-attached with fewer segments, since
	}
	if dep.seg == 0 {
		// The head deploys on the ingress leg the rule gives it once landed with
		// its transaction: the switch-over only steers. Alone it keeps its pooled
		// bit (agent.ErrPooledLegs); a transaction's heads land exclusive, which
		// is what serves an offloaded client over the tunnel.
		seeds := []landed{{dep, placement{h.to, rec.placed[dep].pooled && !p.deferred}, ""}}
		for d, to := range tx {
			seeds = append(seeds, landed{d, placement{to, false}, ""})
		}
		_, _, want := m.wanted(rec, seeds...)
		p.deploy.Ingress.Station = want.legs[dep]
		p.deploy.ClientMAC, p.deploy.ClientIP = rec.mac, rec.ip
	} else {
		p.strategy = StrategyStateful
	}
	rec.mu.Unlock()
	if !attached {
		return MigrationReport{
			Client: client, Chain: dep.name(), From: h.from, To: h.to, Strategy: p.strategy,
			Err: fmt.Sprintf("%v: %s", ErrUnknownChain, dep.chain),
		}, nil
	}
	rep, pending := m.move(tctx, p)
	if p.deferred {
		return rep, pending
	}
	if rep.Err == "" {
		rec.mu.Lock()
		rec.place(dep, h.to, rep.pooled)
		rec.mu.Unlock()
	}
	m.render(tctx, client, rec)
	return rep, nil
}

// moveAll moves a client's deployments as one transaction (attach, offload,
// recall): each hop deferred, then one render with all of them landed, then
// every commit and placement. A failure anywhere undoes every move
// newest-first and renders the table as it stands: the client keeps what it
// had, never a mixture. It returns the report of every move it ran.
func (m *Manager) moveAll(tctx trace.Context, client string, rec *clientRec, hops []hop, strategy Strategy) ([]MigrationReport, error) {
	tx := make(map[deployment]string, len(hops))
	for _, h := range hops {
		tx[h.dep] = h.to
	}
	var reps []MigrationReport
	var moved []*pendingMove
	fail := func(err error) ([]MigrationReport, error) {
		for i := len(moved) - 1; i >= 0; i-- {
			moved[i].undo()
		}
		m.render(tctx, client, rec)
		return reps, err
	}
	seeds := make([]landed, 0, len(hops))
	for _, h := range hops {
		rep, pending := m.moveSegment(tctx, client, rec, h, strategy, tx)
		reps = append(reps, rep)
		if rep.Err != "" {
			return fail(fmt.Errorf("%s/%s: %s", client, rep.Chain, rep.Err))
		}
		moved = append(moved, pending)
		seeds = append(seeds, pending.landed)
	}
	if err := m.render(tctx, client, rec, seeds...); err != nil {
		return fail(err)
	}
	for _, pending := range moved {
		pending.commit()
	}
	rec.mu.Lock()
	for _, s := range seeds {
		rec.place(s.dep, s.pl.station, s.pl.pooled)
	}
	rec.mu.Unlock()
	return reps, nil
}
