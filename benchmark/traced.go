package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/packet"
)

// The traced pass. It runs one round of the workload twice —
// recorder off, then on; the difference is bench.trace_overhead_pct — then
// a smoke-size probe of one workload of each *other* kind, so every
// per-layer metric that is read off a live path has a live path to be read
// from, then the isolated layer loops, and closes the two budgets:
//
//	frame:   core.frame_stage_sum_ns + core.frame_residual_ns = core.frame_cpu_ns
//	handoff: manager.handoff_serial_sum_ms + manager.handoff_residual_ms = roam_complete_p50_ms
//
// End-to-end metrics never come from here.

// kindOf names the family a workload belongs to.
func kindOf(name string) string { return name[:strings.Index(name+"_", "_")] }

// kindProbes is the workload probed for each kind when the traced
// workload is of another kind.
var kindProbes = []string{"fwd_fast_64B", "roam_stateful", stormName}

func runTraced(name string, cfg runConfig, spansPath string) (*workloadResult, error) {
	res := newResult(name)
	rec := newRecorder()
	q := cfg.oneRound()

	ref, err := runUntraced(name, q, nil)
	if err != nil {
		return ref, fmt.Errorf("untraced reference: %w", err)
	}
	traced, err := runUntraced(name, q, rec)
	if err != nil {
		return traced, err
	}
	res.Attempted, res.Failed = traced.Attempted, traced.Failed
	res.Notes = traced.Notes
	live := map[string]*workloadResult{kindOf(name): traced}
	for _, probe := range kindProbes {
		if kindOf(probe) == kindOf(name) {
			continue
		}
		p, err := runUntraced(probe, cfg.probe(), rec)
		if err != nil {
			return p, fmt.Errorf("%s probe: %w", probe, err)
		}
		live[kindOf(probe)] = p
		res.note("metrics read off a live %s run come from a smoke-size probe of %s", kindOf(probe), probe)
	}
	for _, r := range live {
		for k, m := range r.Metrics {
			if strings.Contains(k, ".") {
				res.set(k, m)
			}
		}
	}
	slower := 1 - traced.Metrics["ops_per_sec"].Value/ref.Metrics["ops_per_sec"].Value
	res.set("bench.trace_overhead_pct", single("%", slower*100))

	// Isolated loops, sized by the workload's own frame and chain where it
	// has them.
	frameLen, chain := 64, counterChain()
	fwdName := name
	if kindOf(name) != "fwd" {
		fwdName = kindProbes[0]
	}
	var fwd fwdSpec
	for _, s := range fwdSpecs {
		if s.name == fwdName {
			fwd, frameLen, chain = s, s.frameLen, s.chain
		}
	}
	in := newLayerInputs(frameLen, chain, cfg)
	base := packet.FramePoolOutstanding()
	refresh := packetLayer(res, in, rec)
	netemLayer(res, in, refresh, rec)
	if err := nfLayer(res, in, refresh, rec); err != nil {
		return res.fail(res.Attempted, err)
	}
	if err := containerLayer(res, rec); err != nil {
		return res.fail(res.Attempted, err)
	}
	sumStateful, sumLive, err := agentLayer(res, in, rec)
	if err != nil {
		return res.fail(res.Attempted, err)
	}
	if err := wireLayer(res, in, rec); err != nil {
		return res.fail(res.Attempted, err)
	}
	traceLayer(res, in, rec)
	if err := waitPoolBalanced(base); err != nil {
		return res.fail(res.Attempted, err)
	}
	// Every run above already failed on a non-empty audit or a leaked frame.
	res.set("core.audit_violations", exact("count", 0))
	res.set("core.frame_pool_outstanding", exact("count", float64(packet.FramePoolOutstanding()-base)))

	frameBudget(res, fwd)
	strategy := manager.StrategyStateful
	sum := sumStateful
	if name == "roam_live" {
		strategy, sum = manager.StrategyLive, sumLive
	}
	roam := live["roam"]
	complete := roam.Metrics["roam_complete_p50_ms"].Value
	res.set("manager.handoff_serial_sum_ms", single("ms", sum))
	res.set("manager.handoff_residual_ms", single("ms", complete-sum))
	res.set("core.roam_gap_residual_ms", single("ms", roam.Metrics["wait_p50_ms"].Value-res.Metrics["agent.deploy_ms"].Value))
	res.note("handoff budget (%s): serial sum %.1f ms + residual %.1f ms = roam complete p50 %.1f ms", strategy, sum, complete-sum, complete)

	if err := modelReplay(res, strategy, in.natPorts); err != nil {
		return res.fail(res.Attempted, err)
	}
	res.note("%d spans recorded; self time by name: %s", rec.count(), topSelfTimes(rec, 6))
	if err := rec.writeFile(spansPath); err != nil {
		return res.fail(res.Attempted, err)
	}
	return res, nil
}

// frameBudget prices the path the fwd workload built out of the isolated
// stage costs. A frame crosses five veths (client -> station switch ->
// chain in, chain out -> station switch -> backhaul switch -> server) and
// three switch passes (station twice, backhaul once), runs the chain once
// and is parsed once more by the server host; the generator stamps it
// from its template into a pooled buffer that the sink hands back. The first switch pass sees frames as the
// generator sent them (trains or per-frame); the later two see whatever
// batches the veths delivered.
func frameBudget(res *workloadResult, fwd fwdSpec) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	first, later := v("netem.inject_batch_ns"), v("netem.inject_batch_ns")
	if !fwd.trains {
		first, later = v("netem.inject_scatter_ns"), v("netem.inject_batch_scatter_ns")
	}
	sum := v("packet.frame_refresh_ns") + first + 2*later + 5*v("netem.veth_hop_ns") +
		v("nf.chain_batch_ns") + v("packet.parse_ns")
	cpu := v("core.frame_cpu_ns")
	res.set("core.frame_stage_sum_ns", single("ns", sum))
	res.set("core.frame_residual_ns", single("ns", cpu-sum))
	res.note("frame budget (%s): stage sum %.0f ns + residual %.0f ns = CPU per frame %.0f ns", fwd.name, sum, cpu-sum, cpu)
}

// modelReplay runs the roam script once on a virtual clock, where every
// modelled cost is a deterministic jump of simulated time: the result
// must not move at all unless behaviour changed.
func modelReplay(res *workloadResult, strategy manager.Strategy, natPorts []uint16) error {
	sys, _, err := core.NewVirtualSystem(systemConfig(strategy))
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := sys.AddClient("phone", phoneMAC, phoneIP); err != nil {
		return err
	}
	const replayRoams = 4
	for i := 0; i <= replayRoams; i++ {
		if err := sys.Topo.Attach("phone", roamCells[i%2]); err != nil {
			return err
		}
		if err := sys.WaitClientAt("phone", roamStations[i%2], roamTimeout); err != nil {
			return err
		}
		if i == 0 {
			if err := sys.AttachChain("phone", roamSystemChain()); err != nil {
				return err
			}
		}
		if err := sys.WaitChainOn(roamStations[i%2], "chain", roamTimeout); err != nil {
			return err
		}
		if i == 0 {
			if err := seedNAT(sys, roamStations[0], natPorts); err != nil {
				return err
			}
		}
	}
	migs := sys.Manager.Migrations()
	if len(migs) != replayRoams {
		return fmt.Errorf("virtual replay recorded %d migrations, want %d", len(migs), replayRoams)
	}
	last := migs[len(migs)-1] // both stations warm by now
	if last.Err != "" {
		return fmt.Errorf("virtual replay migration failed: %s", last.Err)
	}
	res.set("core.model_downtime_ms", exact("ms", ms(last.Downtime)))
	res.set("core.model_total_ms", exact("ms", ms(last.Total)))
	return nil
}

// topSelfTimes formats the n span names with the most self time.
func topSelfTimes(rec *recorder, n int) string {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	if len(names) > n {
		names = names[:n]
	}
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %s", name, self[name].Round(time.Millisecond))
	}
	return strings.Join(parts, ", ")
}
