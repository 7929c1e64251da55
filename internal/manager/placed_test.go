package manager

// Internal tests for the placement rules and the deploy-spec renderer: one
// row per rule of wantAt, of pick and of steerRule, wantAt's two public
// readers checked against it over the same rows, and the one-segment
// rendering pinned field for field.

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/packet"
	"gnf/internal/topology"
)

// ruleRows is the rule table. The graph is a path st-a —10ms— st-b —2ms—
// st-c, so st-b is the aggregation hub and st-a ↔ st-b costs 20 ms there and
// back, st-b ↔ st-c 4 ms.
func ruleRows() []ruleRow {
	g := topology.NewGraph()
	g.SetLink(topology.Link{A: "st-a", B: "st-b", Delay: 10 * time.Millisecond})
	g.SetLink(topology.Link{A: "st-b", B: "st-c", Delay: 2 * time.Millisecond})
	edges := []string{"st-a", "st-b", "st-c"}
	st := hubState(g, edges, "nimbus")
	noTopo := hubState(nil, edges, "nimbus")
	noCloud := hubState(g, edges)

	plain := ChainSpec{Name: "c", Functions: fns("", "")}
	budget := func(ms float64, affinities ...string) ChainSpec {
		return ChainSpec{Name: "c", Functions: fns(affinities...), MaxRTTMs: ms}
	}
	split := budget(30, "near-client", "aggregate", "cloud-ok")
	return []ruleRow{
		{"unsplit follows its client", st, whereabouts{station: "st-a"}, plain, 0, "st-b", "st-a"},
		{"a chain of no functions follows too", st, whereabouts{station: "st-a"}, ChainSpec{Name: "c"}, 0, "st-b", "st-a"},
		{"already local", st, whereabouts{station: "st-a"}, plain, 0, "st-a", "st-a"},
		{"not deployed yet", st, whereabouts{station: "st-a"}, plain, 0, "", "st-a"},
		{"out of coverage stays", st, whereabouts{}, plain, 0, "st-b", "st-b"},
		{"within budget stays", st, whereabouts{station: "st-c"}, budget(5, ""), 0, "st-b", "st-b"},
		{"budget violated follows", st, whereabouts{station: "st-a"}, budget(5, ""), 0, "st-b", "st-a"},
		{"budget without a topology follows", noTopo, whereabouts{station: "st-c"}, budget(5, ""), 0, "st-b", "st-c"},
		{"offloaded belongs on its site", st, whereabouts{station: "st-a", offload: "nimbus"}, plain, 0, "st-a", "nimbus"},
		{"split head never stays", st, whereabouts{station: "st-c"}, split, 0, "st-b", "st-c"},
		{"aggregate anchors on the hub", st, whereabouts{station: "st-a"}, split, 1, "st-a", "st-b"},
		{"aggregate without a topology: first edge", noTopo, whereabouts{station: "st-c"}, split, 1, "", "st-a"},
		{"cloud-ok anchors on the cloud site", st, whereabouts{station: "st-a"}, split, 2, "", "nimbus"},
		{"cloud-ok without a cloud site: the hub", noCloud, whereabouts{station: "st-a"}, split, 2, "", "st-b"},
	}
}

type ruleRow struct {
	name string
	st   *controlState
	cl   whereabouts
	spec ChainSpec
	seg  int
	at   string
	want string
}

func TestWantAtRuleTable(t *testing.T) {
	rows := ruleRows()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got, err := wantAt(r.st, r.cl, r.spec, r.seg, r.at)
			if err != nil || got != r.want {
				t.Fatalf("wantAt = %q, %v; want %q", got, err, r.want)
			}
		})
	}
	if _, err := wantAt(hubState(nil, nil, "nimbus"), whereabouts{station: "st-a"}, rows[len(rows)-1].spec, 1, ""); err == nil {
		t.Error("a fleet with no edge station anchored an aggregate segment")
	}
	if _, err := wantAt(rows[0].st, whereabouts{station: "st-a"}, rows[0].spec, 1, ""); err == nil {
		t.Error("segment 1 of a one-segment chain has a placement")
	}
}

// TestReadersAgreeWithTheRule holds the rule's two public readers to it over
// the same rows: a chain is settled exactly where the rule puts its head,
// and a segment plan is the rule asked once per segment.
func TestReadersAgreeWithTheRule(t *testing.T) {
	rows := ruleRows()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			m := &Manager{}
			m.ctrl.Store(r.st)
			if r.seg == 0 {
				for _, at := range []string{"", "st-a", "st-b", "st-c", "nimbus"} {
					want, _ := wantAt(r.st, r.cl, r.spec, 0, at)
					if got := m.ChainSettled(r.spec, r.cl.station, r.cl.offload, at); got != (want == at) {
						t.Errorf("ChainSettled at %q = %v, the rule wants the head at %q", at, got, want)
					}
				}
			}
			rec := m.clients.getOrCreate("phone")
			rec.station, rec.offload = r.cl.station, r.cl.offload
			plan, ok := m.SegmentPlan("phone", r.spec)
			n := len(SegmentsOf(r.spec))
			if ok != (n > 1 && r.cl.station != "") {
				t.Fatalf("SegmentPlan ok = %v for %d segments, client at %q", ok, n, r.cl.station)
			}
			for i, got := range plan {
				if want, _ := wantAt(r.st, r.cl, r.spec, i, ""); got != want {
					t.Errorf("SegmentPlan[%d] = %q, the rule says %q", i, got, want)
				}
			}
		})
	}
}

// pickCands is a candidate set as the evacuation of a fifth station sees it:
// st-a loaded and light on memory, st-b and st-c equally idle but st-b
// short of memory, and a nearly idle cloud site.
func pickCands() []StationInfo {
	return []StationInfo{
		{Station: "nimbus", Cloud: true, CPUPercent: 1},
		{Station: "st-a", CPUPercent: 40, Capacity: 100, MemUsed: 10},
		{Station: "st-b", CPUPercent: 10, Capacity: 100, MemUsed: 90},
		{Station: "st-c", CPUPercent: 10, Capacity: 100, MemUsed: 20},
	}
}

// rttCands is a candidate set on a modeled topology: the near station is
// loaded, the far one idle, one station has no RTT prediction, and a cloud
// site sits close in raw RTT.
func rttCands() []StationInfo {
	return []StationInfo{
		{Station: "nimbus", Cloud: true, CPUPercent: 1, RTTToClient: 6 * time.Millisecond, RTTKnown: true},
		{Station: "st-far", CPUPercent: 5, RTTToClient: 30 * time.Millisecond, RTTKnown: true},
		{Station: "st-lost", CPUPercent: 1},
		{Station: "st-near", CPUPercent: 80, RTTToClient: 10 * time.Millisecond, RTTKnown: true},
	}
}

// TestPlacementRuleTable pins pick, one row per behaviour: the station it
// chooses, the term that decided and the first candidate a filter turned
// away. Each row's comment names the former policy test it carries.
func TestPlacementRuleTable(t *testing.T) {
	ms := time.Millisecond
	with := func(cands []StationInfo, edit func([]StationInfo)) []StationInfo {
		edit(cands)
		return cands
	}
	pooled := func(hashes ...string) func([]StationInfo) {
		return func(c []StationInfo) {
			for i, h := range hashes {
				c[i].PoolHashes = []string{h}
			}
		}
	}
	fw := []string{"hash-fw"}
	for _, r := range []struct {
		name        string
		cands       []StationInfo
		h           placementHint
		want, why   string
		rejected    string
		wantNothing bool
	}{
		// TestClientLocalPlacement: the client's own station, whatever its load.
		{"client station", pickCands(), placementHint{prefer: "st-a"}, "st-a", "client", "nimbus: cloud", false},
		// TestClientLocalPlacement: the preferred station is dead, so load decides.
		{"client station dead: least loaded", pickCands(), placementHint{prefer: "st-dead"}, "st-c", "load", "nimbus: cloud", false},
		// TestLeastLoadedPlacement, TestSpreadPlacement: clouds join only when allowed.
		{"clouds when allowed", pickCands(), placementHint{allowCloud: true}, "nimbus", "load", "", false},
		// TestLeastLoadedPlacement, TestLeastLoadedStationSkipsStale: a station
		// that never reported loses to one with known load, even a busy one.
		{"stale last", []StationInfo{{Station: "st-aa-ghost", Stale: true}, {Station: "st-zz-busy", CPUPercent: 90}},
			placementHint{}, "st-zz-busy", "load", "", false},
		// TestLeastLoadedStationSkipsStale, core's TestLeastLoadedStation: with
		// the fresh station excluded (StationInfos drops it), the stale one serves.
		{"stale when alone", []StationInfo{{Station: "st-aa-ghost", Stale: true}}, placementHint{}, "st-aa-ghost", "only", "", false},
		// TestSharingFirstPlacement: a compatible pool beats lower load.
		{"a compatible pool wins", with(pickCands(), pooled("", "hash-fw", "hash-other")), placementHint{hashes: fw},
			"st-a", "pool", "nimbus: cloud", false},
		// TestSharingFirstPlacement: two compatible hosts, load among them.
		{"two pools: load", with(pickCands(), pooled("", "hash-fw", "", "hash-fw")), placementHint{hashes: fw},
			"st-c", "load", "nimbus: cloud", false},
		// TestSharingFirstPlacement's fallback: the client's station before a pool.
		{"the client station beats a pool", with(pickCands(), pooled("", "hash-fw")), placementHint{prefer: "st-b", hashes: fw},
			"st-b", "client", "nimbus: cloud", false},
		// TestSharingFirstPlacement: a pool on a cloud site counts only when clouds are allowed.
		{"a cloud pool stays out", with(pickCands(), pooled("hash-fw")), placementHint{hashes: fw}, "st-c", "load", "nimbus: cloud", false},
		{"a cloud pool when allowed", with(pickCands(), pooled("hash-fw")), placementHint{hashes: fw, allowCloud: true}, "nimbus", "pool", "", false},
		// TestCloudFirstPlacement: AutoOffload hands the rule cloud sites only.
		{"cloud sites only", []StationInfo{{Station: "nimbus", Cloud: true, CPUPercent: 30}, {Station: "stratus", Cloud: true, CPUPercent: 3}},
			placementHint{allowCloud: true}, "stratus", "load", "", false},
		// TestLatencyAwarePlacement: lower RTT beats lower load.
		{"lower RTT wins", rttCands(), placementHint{}, "st-near", "rtt 10ms", "nimbus: cloud", false},
		// TestLatencyAwarePlacement: the cloud's 6 ms plus the 10 ms penalty loses to 10 ms.
		{"the cloud penalty", rttCands(), placementHint{allowCloud: true}, "st-near", "rtt 10ms", "", false},
		// TestLatencyAwarePlacement: equal raw RTT, the penalty breaks the tie.
		{"the cloud penalty breaks a tie", []StationInfo{
			{Station: "nimbus", Cloud: true, RTTToClient: 6 * ms, RTTKnown: true},
			{Station: "st-a", CPUPercent: 90, RTTToClient: 6 * ms, RTTKnown: true},
		}, placementHint{allowCloud: true}, "st-a", "rtt 6ms", "", false},
		// TestLatencyAwarePlacement: equal RTT, load breaks the tie.
		{"equal RTT: load", []StationInfo{
			{Station: "st-a", CPUPercent: 50, RTTToClient: 10 * ms, RTTKnown: true},
			{Station: "st-b", CPUPercent: 5, RTTToClient: 10 * ms, RTTKnown: true},
		}, placementHint{}, "st-b", "load", "", false},
		// TestLatencyAwarePlacement: a known RTT beats an unknown one.
		{"known RTT beats unknown", with(rttCands(), func(c []StationInfo) { c[3].RTTKnown = false }), placementHint{},
			"st-far", "rtt 30ms", "nimbus: cloud", false},
		// TestLatencyAwarePlacement: no prediction anywhere (no topology), load decides.
		{"no RTT: load", []StationInfo{{Station: "st-x", CPUPercent: 50}, {Station: "st-y", CPUPercent: 5}},
			placementHint{}, "st-y", "load", "", false},
		// TestQoSPlacement: the budget filter turns the far station away.
		{"the budget filter", rttCands(), placementHint{maxRTT: 15 * ms}, "st-near", "rtt 10ms", "nimbus: cloud", false},
		{"the budget filter, clouds allowed", rttCands(), placementHint{maxRTT: 15 * ms, allowCloud: true},
			"st-near", "rtt 10ms", "st-far: over budget 30ms>15ms", false},
		// TestQoSPlacement: a wide budget keeps the lowest RTT among the fitting.
		{"a wide budget", rttCands(), placementHint{maxRTT: 40 * ms}, "st-near", "rtt 10ms", "nimbus: cloud", false},
		// TestQoSPlacement: the near station degraded past the budget.
		{"budget after degradation", with(rttCands(), func(c []StationInfo) { c[3].RTTToClient = 50 * ms }),
			placementHint{maxRTT: 40 * ms}, "st-far", "rtt 30ms", "nimbus: cloud", false},
		// TestQoSPlacement: nothing fits, so the closest cloud site.
		{"over budget: the cloud fallback", rttCands(), placementHint{maxRTT: 5 * ms, allowCloud: true},
			"nimbus", "only, over budget", "nimbus: over budget 6ms>5ms", false},
		// TestQoSPlacement: nothing fits and no cloud allowed, so best effort.
		{"over budget: best effort", rttCands(), placementHint{maxRTT: 5 * ms},
			"st-near", "rtt 10ms, over budget", "nimbus: cloud", false},
		// TestLeastLoadedPlacement, TestLatencyAwarePlacement: nothing to pick.
		{"no candidate", nil, placementHint{}, "", "", "", true},
		{"clouds not allowed", []StationInfo{{Station: "nimbus", Cloud: true}}, placementHint{}, "", "", "nimbus: cloud", true},
	} {
		t.Run(r.name, func(t *testing.T) {
			c, ok := pick(r.cands, r.h)
			if ok == r.wantNothing {
				t.Fatalf("pick ok = %v", ok)
			}
			if c.station != r.want || c.why != r.why || c.rejected != r.rejected {
				t.Fatalf("pick = %q why %q, rejected %q; want %q why %q, rejected %q",
					c.station, c.why, c.rejected, r.want, r.why, r.rejected)
			}
		})
	}
}

// TestRenderRuleTable pins the steering rule, one row per case: for a client
// at station x and its placement table, the steer x holds (via) and every
// exclusive head's ingress leg, keyed by deployment name (a head not listed
// stays on its edge).
func TestRenderRuleTable(t *testing.T) {
	a, b := deployment{chain: "a"}, deployment{chain: "b"}
	web, web1 := deployment{chain: "web"}, deployment{chain: "web", seg: 1}
	at := func(station string) placement { return placement{station: station} }
	pooled := placement{station: "st-b", pooled: true}
	detoured := rendering{at: "st-a", via: "st-b", legs: map[deployment]string{a: "st-a"}}
	type table = map[deployment]placement
	for _, r := range []struct {
		name    string
		x       string
		placed  table
		last    rendering
		at, via string
		legs    map[string]string
	}{
		{"head at the client's station", "st-a", table{a: at("st-a")}, detoured, "", "", nil},
		{"one exclusive head elsewhere", "st-a", table{a: at("st-b")}, rendering{}, "st-a", "st-b", map[string]string{"a": "st-a"}},
		{"two heads at the source: both legs tunnelled", "st-a", table{a: at("st-b"), b: at("st-b")}, rendering{},
			"st-a", "st-b", map[string]string{"a": "st-a", "b": "st-a"}},
		// What TestSecondChainOfAClientIsNotDetoured pins: a steer takes all
		// of the client's traffic, which would pass the head that landed by.
		{"one head landed, the straggler at home", "st-a", table{a: at("st-a"), b: at("st-b")}, detoured, "", "", nil},
		{"exclusive heads on two stations", "st-a", table{a: at("st-b"), b: at("st-c")}, rendering{}, "", "", nil},
		{"pooled head elsewhere", "st-a", table{a: pooled}, rendering{}, "", "", nil},
		{"a pooled head beside an exclusive one", "st-a", table{a: at("st-b"), b: pooled}, rendering{},
			"st-a", "st-b", map[string]string{"a": "st-a"}},
		{"out of coverage: the last output stands", "", table{a: at("st-c")}, detoured, "st-a", "st-b", map[string]string{"a": "st-a"}},
		{"offloaded", "st-c", table{a: at("nimbus"), b: at("nimbus")}, rendering{},
			"st-c", "nimbus", map[string]string{"a": "st-c", "b": "st-c"}},
		{"a split head: its anchored segment is no head", "st-a", table{web: at("st-b"), web1: at("st-hub")}, rendering{},
			"st-a", "st-b", map[string]string{"web": "st-a"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			got := steerRule(r.x, r.placed, r.last)
			legs := map[string]string{}
			for dep, to := range got.legs {
				if to != "" {
					legs[dep.name()] = to
				}
			}
			if got.at != r.at || got.via != r.via || !maps.Equal(legs, r.legs) {
				t.Fatalf("steerRule = steer at %q via %q, legs %v; want at %q via %q, legs %v", got.at, got.via, legs, r.at, r.via, r.legs)
			}
		})
	}
}

// TestOneSegmentChainRendersBare pins the deploy spec of an unsplit chain:
// name, client and functions — no legs, and none of the addressing a split
// chain's segments carry.
func TestOneSegmentChainRendersBare(t *testing.T) {
	mac, ip := packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}
	nowhere := func(int) string { return "st-x" }
	for _, affinities := range [][]string{{"", ""}, {"near-client", ""}} {
		spec := ChainSpec{Name: "chain", Functions: fns(affinities...)}
		got := segmentDeploy("phone", mac, ip, spec.Name, SegmentsOf(spec), 0, nowhere)
		want := agent.DeploySpec{Chain: "chain", Client: "phone", Functions: spec.Functions}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("affinities %q rendered\n\t%+v, want\n\t%+v", affinities, got, want)
		}
	}
	// The split head beside it: addressing and an egress leg naming segment 1.
	spec := ChainSpec{Name: "chain", Functions: fns("near-client", "aggregate")}
	got := segmentDeploy("phone", mac, ip, spec.Name, SegmentsOf(spec), 0, nowhere)
	want := agent.DeploySpec{
		Chain: "chain", Client: "phone", ClientMAC: mac, ClientIP: ip, Functions: spec.Functions[:1],
		Egress: agent.Leg{Station: "st-x", Peer: "chain#1"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("split head rendered\n\t%+v, want\n\t%+v", got, want)
	}
}
