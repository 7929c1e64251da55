package ui_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/nf"
	"gnf/internal/packet"
	dstate "gnf/internal/spec"
	"gnf/internal/topology"
	"gnf/internal/ui"
)

// uiFixture runs a live two-station system behind a UI server.
func uiFixture(t *testing.T) (*core.System, *httptest.Server) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		ReportInterval: 30 * time.Millisecond,
		Stations: []core.StationConfig{
			{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
			{ID: "st-b", Cells: []core.CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if err := sys.AddClient("phone", packet.MAC{2, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("phone", "cell-a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("phone", "st-a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ui.New(sys.Manager).Handler())
	t.Cleanup(srv.Close)
	return sys, srv
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestOverviewEndpoint(t *testing.T) {
	_, srv := uiFixture(t)
	var ov ui.Overview
	getJSON(t, srv.URL+"/api/overview", &ov)
	if ov.OnlineCount != 2 || len(ov.Stations) != 2 {
		t.Fatalf("overview = %+v", ov)
	}
	if ov.Stations[0].Station != "st-a" {
		t.Fatalf("stations = %+v", ov.Stations)
	}
}

func TestAttachDetachOverAPI(t *testing.T) {
	sys, srv := uiFixture(t)
	req := ui.AttachRequest{
		Client: "phone",
		Chain: manager.ChainSpec{
			Name:      "fw",
			Functions: []agent.NFSpec{{Kind: "firewall", Name: "f0", Params: nf.Params{"policy": "accept"}}},
		},
	}
	if resp := postJSON(t, srv.URL+"/api/chains/attach", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("attach = %d", resp.StatusCode)
	}
	if err := sys.WaitChainOn("st-a", "fw", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Re-attaching the identical spec is idempotent (reconciler retries);
	// a different spec under the same name still conflicts.
	if resp := postJSON(t, srv.URL+"/api/chains/attach", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-attach = %d", resp.StatusCode)
	}
	conflicting := req
	conflicting.Chain.Functions = []agent.NFSpec{{Kind: "firewall", Name: "f0", Params: nf.Params{"policy": "drop"}}}
	if resp := postJSON(t, srv.URL+"/api/chains/attach", conflicting); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting attach = %d", resp.StatusCode)
	}
	// Migrate over the API.
	mig := ui.MigrateRequest{Client: "phone", Chain: "fw", To: "st-b"}
	if resp := postJSON(t, srv.URL+"/api/chains/migrate", mig); resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate = %d", resp.StatusCode)
	}
	var migs ui.MigrationsView
	getJSON(t, srv.URL+"/api/migrations", &migs)
	if len(migs.Reports) != 1 || migs.Reports[0].To != "st-b" {
		t.Fatalf("migrations = %+v", migs.Reports)
	}
	if got := migs.Summary.Counters["migration.count"]; got != 1 {
		t.Fatalf("migration.count = %d, want 1", got)
	}
	if h, ok := migs.Summary.Histograms["migration.downtime_ms"]; !ok || h.Count != 1 {
		t.Fatalf("downtime histogram = %+v (ok=%v)", h, ok)
	}
	// Detach.
	det := ui.DetachRequest{Client: "phone", Chain: "fw"}
	if resp := postJSON(t, srv.URL+"/api/chains/detach", det); resp.StatusCode != http.StatusOK {
		t.Fatalf("detach = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/chains/detach", det); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double detach = %d", resp.StatusCode)
	}
}

// TestSegmentsEndpoint attaches a split chain and checks the per-segment
// placement view: one row per segment with its affinity class, NF kinds,
// live station, and planner target.
func TestSegmentsEndpoint(t *testing.T) {
	sys, srv := uiFixture(t)
	req := ui.AttachRequest{
		Client: "phone",
		Chain: manager.ChainSpec{
			Name: "split",
			Functions: []agent.NFSpec{
				{Kind: "firewall", Name: "f0", Params: nf.Params{"policy": "accept"}, Affinity: "near-client"},
				{Kind: "counter", Name: "c0", Affinity: "aggregate"},
			},
		},
	}
	if resp := postJSON(t, srv.URL+"/api/chains/attach", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("attach = %d", resp.StatusCode)
	}
	if err := sys.WaitChainOn("st-a", "split", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitChainOn("st-a", agent.SegmentDeployName("split", 1), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var segs []ui.SegmentView
	getJSON(t, srv.URL+"/api/segments", &segs)
	if len(segs) != 2 {
		t.Fatalf("segments = %+v, want 2 rows", segs)
	}
	head, anchor := segs[0], segs[1]
	if head.Segment != 0 || head.Affinity != "near-client" || head.Station != "st-a" {
		t.Fatalf("head row = %+v", head)
	}
	if anchor.Segment != 1 || anchor.Affinity != "aggregate" || anchor.Station != "st-a" {
		t.Fatalf("anchor row = %+v", anchor)
	}
	if head.Planned != "st-a" || anchor.Planned != "st-a" {
		t.Fatalf("planner targets = %q/%q, want st-a/st-a", head.Planned, anchor.Planned)
	}
	if len(head.Functions) != 1 || head.Functions[0] != "firewall" ||
		len(anchor.Functions) != 1 || anchor.Functions[0] != "counter" {
		t.Fatalf("segment functions = %v / %v", head.Functions, anchor.Functions)
	}
}

// TestBadRequestBodies drives every POST route with malformed and empty
// bodies: each must answer a structured {"error": ...} 400, never a
// plain-text error or a silent success.
func TestBadRequestBodies(t *testing.T) {
	_, srv := uiFixture(t)
	routes := []string{
		"/api/chains/attach",
		"/api/chains/detach",
		"/api/chains/migrate",
		"/api/clients/offload",
		"/api/clients/recall",
		"/api/reconcile",
	}
	bodies := map[string]string{
		"malformed": "{not json",
		"empty":     "",
	}
	for _, path := range routes {
		for kind, body := range bodies {
			t.Run(path+"/"+kind, func(t *testing.T) {
				resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s with %s body = %d, want 400", path, kind, resp.StatusCode)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s error content-type = %q", path, ct)
				}
				var e struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Fatalf("%s error body not JSON: %v", path, err)
				}
				if e.Error == "" {
					t.Fatalf("%s error body has empty message", path)
				}
			})
		}
	}
	// PUT /api/spec shares the same contract.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/spec", strings.NewReader("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT /api/spec malformed = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("PUT /api/spec error body = %+v, %v", e, err)
	}
}

// TestSpecAPIFlow walks the declarative surface end to end: PUT a spec,
// see the gap in /api/diff, reconcile to convergence, and verify a repeat
// pass is a no-op (idempotence) with the installed spec readable back.
func TestSpecAPIFlow(t *testing.T) {
	sys, srv := uiFixture(t)

	// Before any spec: 404s everywhere.
	for _, path := range []string{"/api/spec", "/api/diff"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s before install = %d, want 404", path, resp.StatusCode)
		}
	}

	desired := dstate.Spec{Clients: []dstate.Client{{
		ID: "phone",
		Chains: []dstate.Chain{{ChainSpec: manager.ChainSpec{
			Name:      "fw",
			Functions: []agent.NFSpec{{Kind: "firewall", Name: "f0", Params: nf.Params{"policy": "accept"}}},
		}}},
	}}}
	body, _ := json.Marshal(desired)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/spec", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /api/spec = %d", resp.StatusCode)
	}

	var diff ui.DiffView
	getJSON(t, srv.URL+"/api/diff", &diff)
	if diff.Converged || len(diff.Actions) != 1 || diff.Actions[0].Kind != dstate.ActionAttach {
		t.Fatalf("diff before reconcile = %+v", diff)
	}

	var res struct {
		Converged bool `json:"converged"`
		Executed  []struct {
			Err string `json:"err"`
		} `json:"executed"`
	}
	if r := postJSON(t, srv.URL+"/api/reconcile", map[string]any{}); r.StatusCode != http.StatusOK {
		t.Fatalf("reconcile = %d", r.StatusCode)
	} else if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Executed) != 1 || res.Executed[0].Err != "" {
		t.Fatalf("reconcile executed = %+v", res)
	}
	if err := sys.WaitChainOn("st-a", "fw", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Second pass: converged, zero actions. (Reset res: the omitempty
	// fields of a converged pass would otherwise keep the first decode's
	// values.)
	res.Executed = nil
	if r := postJSON(t, srv.URL+"/api/reconcile", map[string]any{}); r.StatusCode != http.StatusOK {
		t.Fatalf("second reconcile = %d", r.StatusCode)
	} else if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Executed) != 0 {
		t.Fatalf("second reconcile = %+v, want converged no-op", res)
	}
	getJSON(t, srv.URL+"/api/diff", &diff)
	if !diff.Converged || len(diff.Actions) != 0 {
		t.Fatalf("diff after convergence = %+v", diff)
	}

	var st struct {
		Installed bool        `json:"installed"`
		Converged bool        `json:"converged"`
		Spec      dstate.Spec `json:"spec"`
	}
	getJSON(t, srv.URL+"/api/spec", &st)
	if !st.Installed || !st.Converged || len(st.Spec.Clients) != 1 || st.Spec.Clients[0].ID != "phone" {
		t.Fatalf("GET /api/spec = %+v", st)
	}

	// Dry-run never executes: drop the chain from the desired state and ask
	// for the plan — the chain must survive.
	empty := dstate.Spec{Clients: []dstate.Client{{ID: "phone"}}}
	body, _ = json.Marshal(empty)
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/api/spec", bytes.NewReader(body))
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	var dry struct {
		DryRun  bool            `json:"dry_run"`
		Planned []dstate.Action `json:"planned"`
	}
	if r := postJSON(t, srv.URL+"/api/reconcile", map[string]any{"dry_run": true}); r.StatusCode != http.StatusOK {
		t.Fatalf("dry-run = %d", r.StatusCode)
	} else if err := json.NewDecoder(r.Body).Decode(&dry); err != nil {
		t.Fatal(err)
	}
	if !dry.DryRun || len(dry.Planned) != 1 || dry.Planned[0].Kind != dstate.ActionDetach {
		t.Fatalf("dry-run = %+v", dry)
	}
	if got := sys.Manager.Chains("phone"); len(got) != 1 {
		t.Fatalf("dry-run mutated state: chains = %+v", got)
	}
}

func TestDashboardRenders(t *testing.T) {
	_, srv := uiFixture(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	html := buf.String()
	if !strings.Contains(html, "Glasgow Network Functions") || !strings.Contains(html, "st-a") {
		t.Fatalf("dashboard missing content: %.200s", html)
	}
	// Unknown paths 404.
	resp2, _ := http.Get(srv.URL + "/nope")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d", resp2.StatusCode)
	}
}

func TestStartAndClose(t *testing.T) {
	sys, _ := uiFixture(t)
	s := ui.New(sys.Manager)
	if s.Addr() != "" {
		t.Fatal("addr before start")
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Fatal("no addr after start")
	}
	resp, err := http.Get("http://" + s.Addr() + "/api/overview")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReportsPropagateToOverview(t *testing.T) {
	sys, srv := uiFixture(t)
	if err := sys.AttachChain("phone", manager.ChainSpec{
		Name:      "c",
		Functions: []agent.NFSpec{{Kind: "counter", Name: "n"}},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		var ov ui.Overview
		getJSON(t, srv.URL+"/api/overview", &ov)
		if ov.NFCount >= 1 {
			found := false
			for _, st := range ov.Stations {
				for _, ch := range st.Chains {
					if ch.Chain == "c" && ch.Client == "phone" {
						found = true
					}
				}
			}
			if found {
				return
			}
		}
		select {
		case <-deadline:
			t.Fatal("chain never appeared in overview")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestPoolsEndpoint(t *testing.T) {
	sys, srv := uiFixture(t)
	// Two clients, one shareable spec: the pools view must show a single
	// instance on st-a carrying two references.
	if err := sys.AddClient("tablet", packet.MAC{2, 0, 0, 0, 0, 2}, packet.IP{10, 0, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Topo.Attach("tablet", "cell-a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitClientAt("tablet", "st-a", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	shared := func(name string) manager.ChainSpec {
		return manager.ChainSpec{Name: name, Functions: []agent.NFSpec{
			{Kind: "firewall", Name: "fw", Params: nf.Params{"policy": "accept"}},
		}}
	}
	if err := sys.Manager.AttachChain("phone", shared("fw-phone")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Manager.AttachChain("tablet", shared("fw-tablet")); err != nil {
		t.Fatal(err)
	}

	var view ui.PoolsView
	getJSON(t, srv.URL+"/api/pools", &view)
	pools := view.Stations["st-a"]
	if len(pools) != 1 {
		t.Fatalf("pools on st-a = %+v", view.Stations)
	}
	if pools[0].Kinds != "firewall" || pools[0].Refs != 2 || pools[0].Replicas != 1 {
		t.Fatalf("pool = %+v", pools[0])
	}
	if pools[0].ConfigHash == "" {
		t.Fatal("pool missing config hash")
	}
	if len(view.ScaleEvents) != 0 {
		t.Fatalf("unexpected scale events: %+v", view.ScaleEvents)
	}
}
