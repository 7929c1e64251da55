package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/manager"
	dstate "gnf/internal/spec"
)

// counterSpec is a desired state giving client c0 one counter chain.
func counterSpec() *dstate.Spec {
	return &dstate.Spec{Clients: []dstate.Client{{ID: "c0", Chains: []dstate.Chain{{
		ChainSpec: manager.ChainSpec{Name: "ch", Functions: []agent.NFSpec{{Kind: "counter", Name: "acct"}}},
	}}}}}
}

func base() *Spec {
	return &Spec{
		Name: "t",
		Stations: []Station{
			{ID: "st-a", Cells: []Cell{{ID: "cell-a", Center: Point{X: 0}, Radius: 50}}},
		},
		Clients: []Client{{ID: "c0", At: &Point{X: 0}}},
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "missing name"},
		{"no stations", func(s *Spec) { s.Stations = nil }, "no stations"},
		{"dup station", func(s *Spec) { s.Stations = append(s.Stations, s.Stations[0]) }, "duplicate station"},
		{"zero radius", func(s *Spec) { s.Stations[0].Cells[0].Radius = 0 }, "no coverage radius"},
		{"dup client", func(s *Spec) { s.Clients = append(s.Clients, s.Clients[0]) }, "duplicate client"},
		{"unknown action", func(s *Spec) { s.Script = []Step{{Action: "explode"}} }, "unknown action"},
		{"unknown client ref", func(s *Spec) { s.Script = []Step{{Action: ActMove, Client: "ghost", To: &Point{}}} }, "unknown client"},
		{"unknown cell ref", func(s *Spec) { s.Script = []Step{{Action: ActAttach, Client: "c0", Cell: "nowhere"}} }, "unknown cell"},
		{"unknown station ref", func(s *Spec) { s.Script = []Step{{Action: ActKillStation, Station: "ghost"}} }, "unknown station"},
		{"unknown site ref", func(s *Spec) { s.Spec = &dstate.Spec{Clients: []dstate.Client{{ID: "c0", Offload: "ghost"}}} }, "unknown cloud site"},
		{"time reversal", func(s *Spec) {
			s.Script = []Step{
				{At: Duration(2 * time.Second), Action: ActSettle},
				{At: Duration(time.Second), Action: ActSettle},
			}
		}, "back in time"},
		{"waypoint params", func(s *Spec) { s.Script = []Step{{Action: ActWaypoint}} }, "waypoint needs"},
		{"waypoint arena", func(s *Spec) {
			s.Script = []Step{{Action: ActWaypoint, Rounds: 1, Speed: 1, Interval: Duration(time.Second)}}
		}, "arena_w"},
		{"typo'd strategy", func(s *Spec) { s.Spec = &dstate.Spec{Strategy: "statefull"} }, "unknown strategy"},
		{"chains without position", func(s *Spec) {
			s.Clients[0].At = nil
			s.Spec = counterSpec()
		}, "no initial position"},
		{"traffic without frames", func(s *Spec) {
			s.Script = []Step{{Action: ActTraffic, Client: "c0"}}
		}, "frames > 0"},
		{"traffic unknown client", func(s *Spec) {
			s.Script = []Step{{Action: ActTraffic, Client: "ghost", Frames: 10}}
		}, "unknown client"},
		{"autoscaler zero band", func(s *Spec) {
			s.Autoscaler = &AutoscalerSpec{}
		}, "scale_out_load"},
		{"autoscaler inverted band", func(s *Spec) {
			s.Autoscaler = &AutoscalerSpec{ScaleOutLoad: 10, ScaleInLoad: 20}
		}, "below scale_out_load"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base()
			tc.mut(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("validation passed, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec should validate: %v", err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	const stations = `"stations":[{"id":"st-a","cells":[{"id":"cell-a","center":{"x":0},"radius":50}]}]`
	for _, doc := range []string{
		`{"name":"x","statoins":[]}`,
		`{"name":"x","prewarm":true}`, // a field that was removed, not one that is ignored
		// Chains and the strategy moved into the spec key.
		`{"name":"x","strategy":"live",` + stations + `,"clients":[]}`,
		`{"name":"x",` + stations + `,"clients":[{"id":"c0","at":{"x":0},"chains":[]}]}`,
	} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: got %v, want an unknown-field error", doc, err)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"150ms"`)); err != nil {
		t.Fatal(err)
	}
	if d.Std() != 150*time.Millisecond {
		t.Fatalf("got %v", d.Std())
	}
	if err := d.UnmarshalJSON([]byte(`"fast"`)); err == nil {
		t.Fatal("expected parse error")
	}
	if err := d.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Fatal("expected type error")
	}
	b, err := Duration(3 * time.Second).MarshalJSON()
	if err != nil || string(b) != `"3s"` {
		t.Fatalf("marshal: %s, %v", b, err)
	}
}

// TestEngineReportsUnmetExpectations checks that a run with impossible
// expectations fails loudly rather than erroring out.
func TestEngineReportsUnmetExpectations(t *testing.T) {
	sp := base()
	sp.Spec = counterSpec()
	sp.Expect = Expect{
		MinHandoffs:   99,
		FinalStations: map[string]string{"c0": "st-zz"},
	}
	res, err := RunSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("impossible expectations reported as passed")
	}
	joined := strings.Join(res.Failures, "\n")
	for _, want := range []string{"handoffs: got 0, want >= 99", `final station of c0: got "st-a", want "st-zz"`} {
		if !strings.Contains(joined, want) {
			t.Errorf("failures missing %q:\n%s", want, joined)
		}
	}
}

// TestEngineSingleUse ensures Run refuses a second invocation.
func TestEngineSingleUse(t *testing.T) {
	e, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}
