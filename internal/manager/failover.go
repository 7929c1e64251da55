// Station failover: the Manager's health monitoring (§3) exists so the
// provider can react when part of the infrastructure misbehaves. This file
// closes that loop — when a station's agent connection drops or its
// heartbeats go silent, the Manager declares the station failed and
// re-places every chain it hosted where the placement rule puts it, each
// client's current station first. Recovery is a cold
// deploy: the failed station's NF state is gone by definition.
package manager

import (
	"fmt"
	"sort"
	"time"

	"gnf/internal/clock"
	"gnf/internal/trace"
)

// FailoverReport records the recovery of one chain from a failed station.
type FailoverReport struct {
	Station   string        `json:"station"` // the failed station
	Client    string        `json:"client"`
	Chain     string        `json:"chain"`
	To        string        `json:"to"` // where the chain was revived
	Recovered time.Duration `json:"recovered"`
	Err       string        `json:"err,omitempty"`
	// why is the placement rule's explanation when it chose To.
	why choice
}

// WithFailover arms automatic failover at construction: heartbeats older
// than timeout mark a station failed, and dropped agent connections
// trigger immediate re-placement. timeout <= 0 leaves only the
// connection-drop trigger.
func WithFailover(timeout time.Duration) Option {
	return func(m *Manager) {
		m.mutate(func(c *controlState) {
			c.failoverTimeout = timeout
			c.failoverAuto = true
		})
	}
}

// EnableFailover arms automatic failover at runtime.
func (m *Manager) EnableFailover(timeout time.Duration) {
	m.mutate(func(c *controlState) {
		c.failoverTimeout = timeout
		c.failoverAuto = true
	})
}

// Failovers returns a copy of completed failover reports.
func (m *Manager) Failovers() []FailoverReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]FailoverReport{}, m.failovers...)
}

// FailedStations lists stations currently declared dead, sorted.
func (m *Manager) FailedStations() []string {
	failed := m.state().failed
	out := make([]string, 0, len(failed))
	for s := range failed {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// CheckFailures scans for failed stations and re-places every chain they
// hosted. A station is failed when chains are recorded on it but no agent
// connection exists, or when its last heartbeat is older than the failover
// timeout (in which case its connection is also torn down). It returns the
// reports for this invocation.
func (m *Manager) CheckFailures() []FailoverReport {
	now := m.clk.Now()

	st := m.state()
	timeout := st.failoverTimeout
	// Stations hosting at least one deployment.
	hosting := make(map[string]bool)
	m.eachPlaced(func(_ string, _ *clientRec, _ deployment, at string) { hosting[at] = true })
	var silent []*AgentHandle
	if timeout > 0 {
		for _, h := range st.agents {
			h.mu.Lock()
			seen := h.lastSeen
			h.mu.Unlock()
			if !seen.IsZero() && now.Sub(seen) > timeout {
				silent = append(silent, h)
			}
		}
	}
	var dead []string
	m.mutate(func(c *controlState) {
		for station := range hosting {
			if _, alive := c.agents[station]; !alive && !c.failed[station] {
				dead = append(dead, station)
				c.failed[station] = true
			}
		}
	})

	// Silent agents: cut the connection (OnClose removes them from the
	// registry) and treat them as dead below.
	for _, h := range silent {
		h.peer.Close()
		m.mutate(func(c *controlState) {
			if cur, ok := c.agents[h.Station]; ok && cur == h {
				delete(c.agents, h.Station)
			}
			if !c.failed[h.Station] && hosting[h.Station] {
				dead = append(dead, h.Station)
				c.failed[h.Station] = true
			}
		})
	}

	var reports []FailoverReport
	for _, st := range dead {
		reports = append(reports, m.failStation(st)...)
	}
	return reports
}

// failStation re-places every deployment the dead station hosted. A dead
// cloud site ends its clients' offload; each revival's render unsteers them.
func (m *Manager) failStation(station string) []FailoverReport {
	m.clients.forEach(func(_ string, rec *clientRec) {
		rec.mu.Lock()
		if rec.offload == station {
			rec.offload = ""
		}
		rec.mu.Unlock()
	})

	var reports []FailoverReport
	for _, j := range m.deploymentsOn(station) {
		rep := m.revive(station, j)
		m.recordFailover(rep)
		reports = append(reports, rep)
	}
	return reports
}

// recordFailover appends a failover report to the history, trimming to
// the newest historyCap entries, and journals it.
func (m *Manager) recordFailover(rep FailoverReport) {
	m.mu.Lock()
	m.failovers = append(m.failovers, rep)
	if len(m.failovers) > historyCap {
		m.failovers = m.failovers[len(m.failovers)-historyCap:]
	}
	m.mu.Unlock()
	m.journal.Append(trace.Event{
		Type: trace.EventFailover, Subject: rep.Chain, Station: rep.To,
		Detail: rep.why.annotate(fmt.Sprintf("client=%s lost=%s recovered=%s", rep.Client, rep.Station, rep.Recovered)),
		Err:    rep.Err,
	})
}

// revive cold-deploys one deployment lost with its station: the dead
// station's state is gone by definition, so the plan names no source, and a
// copy the station may still announce on rejoin is the rejoin GC's to
// collect. An anchored segment comes back on its anchor, which the placement
// rule re-derives over the surviving agents; a head goes where the placement
// rule says, its client's station first. Either is spliced back between its
// neighbours — the other segments survived the failure — and a leg that
// cannot be re-spliced fails the revival like it fails any move.
func (m *Manager) revive(failed string, j displaced) FailoverReport {
	dep := j.dep
	rep := FailoverReport{Station: failed, Client: j.client, Chain: dep.name()}
	watch := clock.NewStopwatch(m.clk)

	j.rec.mu.Lock()
	cl := j.rec.whereabouts()
	j.rec.mu.Unlock()
	if dep.seg > 0 {
		to, err := wantAt(m.state(), cl, j.spec, dep.seg, "")
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.To = to
	} else {
		// The dead station is still the RTT reference point.
		hint := hintFor(j.spec, cl.station)
		if cl.station != failed {
			hint.prefer = cl.station
		}
		c, ok := m.place(m.StationInfos(failed), hint)
		if !ok {
			rep.Err = fmt.Sprintf("no surviving station for %s/%s", j.client, j.spec.Name)
			return rep
		}
		rep.To, rep.why = c.station, c
	}

	j.rec.migMu.Lock()
	defer j.rec.migMu.Unlock()
	// The client may have been reconciled meanwhile; never double-deploy.
	j.rec.mu.Lock()
	at := j.rec.at(dep)
	j.rec.mu.Unlock()
	if at != failed {
		rep.To, rep.Recovered = at, watch.Elapsed()
		return rep
	}
	if mig, _ := m.moveSegment(trace.Context{}, j.client, j.rec, hop{dep, "", rep.To}, StrategyCold, nil); mig.Err != "" {
		rep.Err = mig.Err
		return rep
	}
	rep.Recovered = watch.Elapsed()
	return rep
}

// RunFailureDetector periodically invokes CheckFailures until stop closes.
// Pair it with WithFailover to also catch silent (non-crashed but
// unreachable) stations.
func (m *Manager) RunFailureDetector(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.CheckFailures()
		}
	}
}
