package manager

// Internal tests for the placement rules and the deploy-spec renderer: one
// row per rule of wantAt and of steerRule, wantAt's two public readers checked
// against it over the same rows, and the one-segment rendering pinned field
// for field.

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
	qos := hubState(g, edges, "nimbus")
	qos.placement = QoSPlacement{}
	local := hubState(g, edges, "nimbus")
	local.placement = ClientLocalPlacement{}
	noTopo := hubState(nil, edges, "nimbus")
	noTopo.placement = QoSPlacement{}
	noCloud := hubState(g, edges)

	plain := ChainSpec{Name: "c", Functions: fns("", "")}
	budget := func(ms float64, affinities ...string) ChainSpec {
		return ChainSpec{Name: "c", Functions: fns(affinities...), MaxRTTMs: ms}
	}
	split := budget(30, "near-client", "aggregate", "cloud-ok")
	return []ruleRow{
		{"unsplit follows its client", local, whereabouts{station: "st-a"}, plain, 0, "st-b", "st-a"},
		{"a chain of no functions follows too", local, whereabouts{station: "st-a"}, ChainSpec{Name: "c"}, 0, "st-b", "st-a"},
		{"already local", local, whereabouts{station: "st-a"}, plain, 0, "st-a", "st-a"},
		{"not deployed yet", local, whereabouts{station: "st-a"}, plain, 0, "", "st-a"},
		{"out of coverage stays", local, whereabouts{}, plain, 0, "st-b", "st-b"},
		{"within budget stays", qos, whereabouts{station: "st-c"}, budget(5, ""), 0, "st-b", "st-b"},
		{"budget violated follows", qos, whereabouts{station: "st-a"}, budget(5, ""), 0, "st-b", "st-a"},
		{"budget without an RTT-aware policy follows", local, whereabouts{station: "st-c"}, budget(5, ""), 0, "st-b", "st-c"},
		{"budget without a topology follows", noTopo, whereabouts{station: "st-c"}, budget(5, ""), 0, "st-b", "st-c"},
		{"offloaded belongs on its site", qos, whereabouts{station: "st-a", offload: "nimbus"}, plain, 0, "st-a", "nimbus"},
		{"split head never stays", qos, whereabouts{station: "st-c"}, split, 0, "st-b", "st-c"},
		{"aggregate anchors on the hub", qos, whereabouts{station: "st-a"}, split, 1, "st-a", "st-b"},
		{"aggregate without a topology: first edge", noTopo, whereabouts{station: "st-c"}, split, 1, "", "st-a"},
		{"cloud-ok anchors on the cloud site", qos, whereabouts{station: "st-a"}, split, 2, "", "nimbus"},
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
