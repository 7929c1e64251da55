package ui_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gnf/internal/agent"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/netem"
	"gnf/internal/packet"
	"gnf/internal/topology"
	"gnf/internal/ui"
)

// cloudFixture is uiFixture plus a cloud site.
func cloudFixture(t *testing.T) (*core.System, *httptest.Server) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		ReportInterval: 30 * time.Millisecond,
		Stations: []core.StationConfig{
			{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
		},
		Clouds: []core.CloudConfig{{ID: "nimbus", WAN: netem.LinkParams{Delay: time.Millisecond}}},
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

func TestOffloadAndRecallEndpoints(t *testing.T) {
	sys, srv := cloudFixture(t)
	if err := sys.AttachChain("phone", manager.ChainSpec{
		Name:      "fw",
		Functions: []agent.NFSpec{{Kind: "firewall", Name: "fw0"}},
	}); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, srv.URL+"/api/clients/offload", ui.OffloadRequest{Client: "phone", Site: "nimbus"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("offload = %d", resp.StatusCode)
	}
	var rep manager.OffloadReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Site != "nimbus" || len(rep.Chains) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if got := sys.Manager.Offloaded("phone"); got != "nimbus" {
		t.Fatalf("Offloaded = %q", got)
	}

	// Offloading an already offloaded client is a conflict.
	if resp := postJSON(t, srv.URL+"/api/clients/offload", ui.OffloadRequest{Client: "phone", Site: "nimbus"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double offload = %d", resp.StatusCode)
	}

	resp = postJSON(t, srv.URL+"/api/clients/recall", ui.RecallRequest{Client: "phone"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recall = %d", resp.StatusCode)
	}
	if got := sys.Manager.Offloaded("phone"); got != "" {
		t.Fatalf("still offloaded: %q", got)
	}
}

func TestFailoversAndPlacementEndpoints(t *testing.T) {
	_, srv := cloudFixture(t)

	var fo struct {
		Failed    []string                 `json:"failed_stations"`
		Recovered []manager.FailoverReport `json:"recovered"`
	}
	getJSON(t, srv.URL+"/api/failovers", &fo)
	if len(fo.Failed) != 0 || len(fo.Recovered) != 0 {
		t.Fatalf("unexpected failovers: %+v", fo)
	}

	var pl struct {
		Stations []manager.StationInfo `json:"stations"`
	}
	getJSON(t, srv.URL+"/api/placement", &pl)
	if len(pl.Stations) != 2 {
		t.Fatalf("stations = %+v", pl.Stations)
	}
	// The cloud site is flagged.
	cloudSeen := false
	for _, st := range pl.Stations {
		if st.Station == "nimbus" && st.Cloud {
			cloudSeen = true
		}
	}
	if !cloudSeen {
		t.Fatal("cloud site not reported")
	}
}
