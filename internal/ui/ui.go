// Package ui implements the GNF User Interface of §3: "the overall
// management interface for the system through a direct connection to the
// Manager's API. Using a simple interface, the entire network health,
// status, and notifications can be monitored, including the number of
// online stations, connected clients, enabled NFs, and current processing
// and network resource consumption."
//
// It is an HTTP server rendering a JSON API (consumed by gnfctl and the
// benches) plus a single self-refreshing HTML dashboard.
package ui

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"gnf/internal/agent"
	"gnf/internal/manager"
	"gnf/internal/metrics"
	"gnf/internal/reconcile"
	"gnf/internal/spec"
	"gnf/internal/trace"
)

// StationView is one station's row in the dashboard.
type StationView struct {
	Station   string      `json:"station"`
	Online    bool        `json:"online"`
	LastSeen  time.Time   `json:"last_seen"`
	CPU       float64     `json:"cpu_percent"`
	MemoryMB  float64     `json:"memory_mb"`
	NFs       int         `json:"nfs"`
	RxFrames  uint64      `json:"rx_frames"`
	Redirects uint64      `json:"redirects"`
	Chains    []ChainView `json:"chains,omitempty"`
}

// ChainView is one deployed chain.
type ChainView struct {
	Chain     string `json:"chain"`
	Client    string `json:"client"`
	Enabled   bool   `json:"enabled"`
	Processed uint64 `json:"processed"`
}

// Overview is the dashboard snapshot.
type Overview struct {
	Stations      []StationView             `json:"stations"`
	OnlineCount   int                       `json:"online_count"`
	NFCount       int                       `json:"nf_count"`
	Hotspots      []string                  `json:"hotspots"`
	Notifications []agent.Alert             `json:"notifications"`
	Migrations    []manager.MigrationReport `json:"migrations"`
}

// Server is the UI HTTP server.
type Server struct {
	mgr *manager.Manager
	rec *reconcile.Reconciler
	mux *http.ServeMux
	ln  net.Listener
	srv *http.Server
}

// New builds a UI server over the manager (not yet listening).
func New(mgr *manager.Manager) *Server {
	s := &Server{mgr: mgr, rec: reconcile.New(mgr), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/overview", s.handleOverview)
	s.mux.HandleFunc("GET /api/stations", s.handleStations)
	s.mux.HandleFunc("GET /api/notifications", s.handleNotifications)
	s.mux.HandleFunc("GET /api/migrations", s.handleMigrations)
	s.mux.HandleFunc("POST /api/chains/attach", s.handleAttach)
	s.mux.HandleFunc("POST /api/chains/detach", s.handleDetach)
	s.mux.HandleFunc("POST /api/chains/migrate", s.handleMigrate)
	s.mux.HandleFunc("POST /api/clients/offload", s.handleOffload)
	s.mux.HandleFunc("POST /api/clients/recall", s.handleRecall)
	s.mux.HandleFunc("GET /api/failovers", s.handleFailovers)
	s.mux.HandleFunc("GET /api/placement", s.handlePlacement)
	s.mux.HandleFunc("GET /api/pools", s.handlePools)
	s.mux.HandleFunc("GET /api/segments", s.handleSegments)
	s.mux.HandleFunc("GET /api/spec", s.handleGetSpec)
	s.mux.HandleFunc("PUT /api/spec", s.handlePutSpec)
	s.mux.HandleFunc("GET /api/diff", s.handleDiff)
	s.mux.HandleFunc("POST /api/reconcile", s.handleReconcile)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/traces", s.handleTraces)
	s.mux.HandleFunc("GET /api/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /api/events", s.handleEvents)
	s.mux.HandleFunc("GET /", s.handleDashboard)
	return s
}

// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by default —
// the daemon arms it behind a flag; profiling endpoints expose enough
// internals that they should be opt-in.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Reconciler exposes the desired-state reconciler so the daemon can start
// its background loop (and tests can drive passes directly).
func (s *Server) Reconciler() *reconcile.Reconciler { return s.rec }

// Handler exposes the mux (tests use httptest against it).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr ("127.0.0.1:0" for ephemeral) and serves in the
// background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln)
	return nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server and the reconcile loop if one is running.
func (s *Server) Close() error {
	s.rec.Stop()
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// overview assembles the dashboard snapshot from manager state.
func (s *Server) overview(withChains bool) Overview {
	var ov Overview
	for _, st := range s.mgr.Agents() {
		h, ok := s.mgr.AgentHandleFor(st)
		if !ok {
			continue
		}
		rep, seen := h.LastReport()
		view := StationView{
			Station:   st,
			Online:    true,
			LastSeen:  seen,
			CPU:       rep.Usage.CPUPercent,
			MemoryMB:  float64(rep.Usage.MemoryBytes) / (1 << 20),
			NFs:       rep.Usage.Containers,
			RxFrames:  rep.Switch.RxFrames,
			Redirects: rep.Switch.Redirects,
		}
		if withChains {
			for _, cs := range rep.Chains {
				view.Chains = append(view.Chains, ChainView{
					Chain: cs.Chain, Client: cs.Client, Enabled: cs.Enabled, Processed: cs.Processed,
				})
			}
		}
		ov.Stations = append(ov.Stations, view)
		ov.OnlineCount++
		ov.NFCount += view.NFs
	}
	sort.Slice(ov.Stations, func(i, j int) bool { return ov.Stations[i].Station < ov.Stations[j].Station })
	ov.Hotspots = s.mgr.Hotspots()
	ov.Notifications = s.mgr.Notifications()
	ov.Migrations = s.mgr.Migrations()
	return ov
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeErr renders every API error the same way: a structured JSON body
// so clients never have to guess between plain-text and JSON failures.
func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeBody parses a JSON request body into v, rejecting empty bodies
// explicitly (Decode would report a bare io.EOF, which reads like a
// transport bug rather than a client mistake).
func decodeBody(r *http.Request, v any) error {
	err := json.NewDecoder(r.Body).Decode(v)
	if errors.Is(err, io.EOF) {
		return errors.New("empty request body: expected a JSON object")
	}
	return err
}

func (s *Server) handleOverview(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.overview(true))
}

func (s *Server) handleStations(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.overview(true).Stations)
}

func (s *Server) handleNotifications(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.mgr.Notifications())
}

// MigrationsView is the GET /api/migrations payload: the raw reports plus
// the manager's aggregate observability (downtime/total/state-size
// histograms and migration counters).
type MigrationsView struct {
	Reports []manager.MigrationReport `json:"reports"`
	Summary metrics.Snapshot          `json:"summary"`
}

func (s *Server) handleMigrations(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, MigrationsView{
		Reports: s.mgr.Migrations(),
		Summary: s.mgr.MetricsSnapshot(),
	})
}

// SegmentView is one row of GET /api/segments: one segment of an
// attached chain — its affinity class, the NFs it carries, where it
// actually runs, and where the placement planner wants it. Unsplit
// chains appear as a single segment-0 row, so the view doubles as a
// complete placement table.
type SegmentView struct {
	Client   string `json:"client"`
	Chain    string `json:"chain"`
	Segment  int    `json:"segment"`
	Affinity string `json:"affinity,omitempty"`
	// Functions lists the NF kinds this segment hosts, in chain order.
	Functions []string `json:"functions"`
	// Station is where the segment's deployment currently sits ("" while
	// in flight); Planned is the planner's target for split chains.
	Station string `json:"station,omitempty"`
	Planned string `json:"planned,omitempty"`
}

func (s *Server) handleSegments(w http.ResponseWriter, r *http.Request) {
	placed := map[string]map[string]string{}
	for _, p := range s.mgr.Placements() {
		if placed[p.Client] == nil {
			placed[p.Client] = map[string]string{}
		}
		placed[p.Client][p.Chain] = p.Station
	}
	out := []SegmentView{}
	for _, client := range s.mgr.Clients() {
		for _, cs := range s.mgr.Chains(client) {
			segs := manager.SegmentsOf(cs)
			var plan []string
			if len(segs) > 1 {
				plan, _ = s.mgr.SegmentPlan(client, cs)
			}
			for i, sg := range segs {
				kinds := make([]string, len(sg.Functions))
				for j, fn := range sg.Functions {
					kinds[j] = fn.Kind
				}
				v := SegmentView{
					Client: client, Chain: cs.Name, Segment: i,
					Affinity:  sg.Affinity,
					Functions: kinds,
					Station:   placed[client][agent.SegmentDeployName(cs.Name, i)],
				}
				if i < len(plan) {
					v.Planned = plan[i]
				}
				out = append(out, v)
			}
		}
	}
	writeJSON(w, out)
}

// AttachRequest is the POST body for /api/chains/attach.
type AttachRequest struct {
	Client string            `json:"client"`
	Chain  manager.ChainSpec `json:"chain"`
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req AttachRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mgr.AttachChain(req.Client, req.Chain); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]string{"status": "attached"})
}

// DetachRequest is the POST body for /api/chains/detach.
type DetachRequest struct {
	Client string `json:"client"`
	Chain  string `json:"chain"`
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	var req DetachRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mgr.DetachChain(req.Client, req.Chain); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, map[string]string{"status": "detached"})
}

// MigrateRequest is the POST body for /api/chains/migrate.
type MigrateRequest struct {
	Client string `json:"client"`
	Chain  string `json:"chain"`
	To     string `json:"to"`
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.mgr.MigrateChain(req.Client, req.Chain, req.To)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, rep)
}

// OffloadRequest is the POST body for /api/clients/offload.
type OffloadRequest struct {
	Client string `json:"client"`
	Site   string `json:"site"`
}

func (s *Server) handleOffload(w http.ResponseWriter, r *http.Request) {
	var req OffloadRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.mgr.OffloadClient(req.Client, req.Site)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, rep)
}

// RecallRequest is the POST body for /api/clients/recall.
type RecallRequest struct {
	Client string `json:"client"`
}

func (s *Server) handleRecall(w http.ResponseWriter, r *http.Request) {
	var req RecallRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.mgr.RecallClient(req.Client)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, rep)
}

func (s *Server) handleFailovers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Failed    []string                 `json:"failed_stations"`
		Recovered []manager.FailoverReport `json:"recovered"`
	}{s.mgr.FailedStations(), s.mgr.Failovers()})
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Stations []manager.StationInfo `json:"stations"`
	}{s.mgr.StationInfos()})
}

// PoolsView is the GET /api/pools payload: each station's live
// shared-instance table plus the autoscaler's decision log.
type PoolsView struct {
	Stations    map[string][]agent.PoolStatus `json:"stations"`
	ScaleEvents []manager.ScaleEvent          `json:"scale_events"`
}

func (s *Server) handlePools(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, PoolsView{
		Stations:    s.mgr.PoolTables(),
		ScaleEvents: s.mgr.ScaleEvents(),
	})
}

// handleGetSpec returns the installed desired spec and its convergence
// status; 404 before any spec was installed.
func (s *Server) handleGetSpec(w http.ResponseWriter, r *http.Request) {
	st := s.rec.Status()
	if !st.Installed {
		writeErr(w, http.StatusNotFound, reconcile.ErrNoSpec)
		return
	}
	writeJSON(w, st)
}

// handlePutSpec validates and installs a desired spec document.
func (s *Server) handlePutSpec(w http.ResponseWriter, r *http.Request) {
	var sp spec.Spec
	if err := decodeBody(r, &sp); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.rec.SetSpec(&sp)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, st)
}

// DiffView is the GET /api/diff payload: the full pending action plan.
type DiffView struct {
	Hash       string        `json:"hash"`
	Generation uint64        `json:"generation"`
	Converged  bool          `json:"converged"`
	Actions    []spec.Action `json:"actions"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	plan, err := s.rec.Plan()
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	st := s.rec.Status()
	writeJSON(w, DiffView{
		Hash: st.Hash, Generation: st.Generation,
		Converged: len(plan) == 0,
		Actions:   append([]spec.Action{}, plan...),
	})
}

// ReconcileRequest is the POST body for /api/reconcile. An empty object
// runs a real pass; {"dry_run": true} only reports the plan.
type ReconcileRequest struct {
	DryRun bool `json:"dry_run,omitempty"`
}

func (s *Server) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req ReconcileRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.rec.ReconcileOnce(req.DryRun)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, res)
}

// handleMetrics renders the manager registry in the Prometheus text
// exposition format — the unified telemetry plane's scrape endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WriteProm(w, s.mgr.MetricsSnapshot())
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.mgr.Tracer().Traces())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.mgr.Tracer().Trace(id)
	if len(spans) == 0 {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", id))
		return
	}
	writeJSON(w, spans)
}

// EventsView is the GET /api/events payload. LastSeq lets pollers (gnfctl
// events -follow) resume with ?after=N without re-reading the ring.
type EventsView struct {
	LastSeq uint64        `json:"last_seq"`
	Events  []trace.Event `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad after=%q: %v", v, err))
			return
		}
		after = n
	}
	j := s.mgr.Journal()
	writeJSON(w, EventsView{
		LastSeq: j.LastSeq(),
		Events:  j.Events(after, q["type"]...),
	})
}

var dashboardTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><title>GNF Dashboard</title>
<meta http-equiv="refresh" content="2">
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
table{border-collapse:collapse;margin-bottom:1.5em}
td,th{border:1px solid #ccc;padding:4px 10px;text-align:left}
th{background:#223}
th{color:#fff}
.warn{color:#b00}
</style></head><body>
<h1>Glasgow Network Functions</h1>
<p>{{.OnlineCount}} stations online &middot; {{.NFCount}} NFs running
{{if .Hotspots}}<span class="warn">&middot; hotspots: {{range .Hotspots}}{{.}} {{end}}</span>{{end}}</p>
<h2>Stations</h2>
<table><tr><th>Station</th><th>CPU %</th><th>Memory MB</th><th>NFs</th><th>Frames</th><th>Redirects</th></tr>
{{range .Stations}}<tr><td>{{.Station}}</td><td>{{printf "%.1f" .CPU}}</td><td>{{printf "%.1f" .MemoryMB}}</td><td>{{.NFs}}</td><td>{{.RxFrames}}</td><td>{{.Redirects}}</td></tr>{{end}}
</table>
<h2>Chains</h2>
<table><tr><th>Station</th><th>Chain</th><th>Client</th><th>Enabled</th><th>Processed</th></tr>
{{range $st := .Stations}}{{range .Chains}}<tr><td>{{$st.Station}}</td><td>{{.Chain}}</td><td>{{.Client}}</td><td>{{.Enabled}}</td><td>{{.Processed}}</td></tr>{{end}}{{end}}
</table>
<h2>Migrations ({{len .Migrations}})</h2>
<table><tr><th>Client</th><th>Chain</th><th>From</th><th>To</th><th>Strategy</th><th>Downtime</th></tr>
{{range .Migrations}}<tr><td>{{.Client}}</td><td>{{.Chain}}</td><td>{{.From}}</td><td>{{.To}}</td><td>{{.Strategy}}</td><td>{{.Downtime}}</td></tr>{{end}}
</table>
<h2>Notifications ({{len .Notifications}})</h2>
<table><tr><th>Station</th><th>NF</th><th>Severity</th><th>Message</th></tr>
{{range .Notifications}}<tr><td>{{.Station}}</td><td>{{.Notification.NF}}</td><td>{{.Notification.Severity}}</td><td>{{.Notification.Message}}</td></tr>{{end}}
</table>
</body></html>`))

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, s.overview(true)); err != nil {
		fmt.Fprintf(w, "<!-- render error: %v -->", err)
	}
}
