package manager

import (
	"fmt"
	"sort"
	"time"

	"gnf/internal/agent"
	"gnf/internal/trace"
)

// This file implements two operational features of §3:
//
//   - scheduled NFs: "New NFs can be attached in seconds or removed from
//     clients as well as scheduled to be enabled only during specific time
//     periods" — Schedule/EvaluateSchedules below;
//   - hotspot response: the Manager detects resource hotspots "and
//     therefore the part of the infrastructure that should be upgraded" —
//     EvacuateStation moves every chain off a station for maintenance.

// Window is an absolute [EnableAt, DisableAt) activation period for a
// chain. A zero DisableAt means "enabled forever after EnableAt".
type Window struct {
	EnableAt  time.Time `json:"enable_at"`
	DisableAt time.Time `json:"disable_at"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	if t.Before(w.EnableAt) {
		return false
	}
	return w.DisableAt.IsZero() || t.Before(w.DisableAt)
}

// schedule tracks one chain's activation window and last applied state.
type schedule struct {
	client  string
	chain   string
	window  Window
	enabled *bool // last state pushed to the agent (nil = unknown)
	dropped bool  // unregistered (detach/Unschedule); never apply again
}

// Schedule registers an activation window for an attached chain. The
// window takes effect on the next EvaluateSchedules pass (the ticker in
// RunScheduler, or a manual call from tests/virtual-clock sims).
// Re-registering a window for the same (client, chain) replaces the old
// one — two live windows for one chain would fight each other, flapping
// the chain on every evaluation pass.
func (m *Manager) Schedule(client, chainName string, w Window) error {
	rec := m.clients.get(client)
	if rec == nil {
		return fmt.Errorf("%w: %s", ErrUnknownClient, client)
	}
	rec.mu.Lock()
	_, attached := rec.chains[chainName]
	rec.mu.Unlock()
	if !attached {
		return fmt.Errorf("%w: %s", ErrUnknownChain, chainName)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.schedules {
		if s.client == client && s.chain == chainName {
			// Retire the old entry rather than mutating it: an in-flight
			// EvaluateSchedules pass may hold a pointer to it, and must not
			// apply the replaced window's transition.
			s.dropped = true
			m.schedules[i] = &schedule{client: client, chain: chainName, window: w}
			return nil
		}
	}
	m.schedules = append(m.schedules, &schedule{client: client, chain: chainName, window: w})
	return nil
}

// Unschedule drops the activation window of a (client, chain) pair,
// reporting whether one was registered. The chain keeps whatever enabled
// state the last evaluation left it in.
func (m *Manager) Unschedule(client, chainName string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.unscheduleLocked(client, chainName)
}

// unscheduleLocked removes the pair's window and marks it dropped so an
// in-flight EvaluateSchedules pass holding a pointer to it cannot apply
// it anymore. Callers hold m.mu.
func (m *Manager) unscheduleLocked(client, chainName string) bool {
	kept := m.schedules[:0]
	found := false
	for _, s := range m.schedules {
		if s.client == client && s.chain == chainName {
			s.dropped = true
			found = true
			continue
		}
		kept = append(kept, s)
	}
	m.schedules = kept
	return found
}

// Schedules lists registered windows as (client, chain, window) triples,
// sorted for stable output.
func (m *Manager) Schedules() []struct {
	Client, Chain string
	Window        Window
} {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]struct {
		Client, Chain string
		Window        Window
	}, 0, len(m.schedules))
	for _, s := range m.schedules {
		out = append(out, struct {
			Client, Chain string
			Window        Window
		}{s.client, s.chain, s.window})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].Chain < out[j].Chain
	})
	return out
}

// EvaluateSchedules applies every window against the manager clock's
// current time, enabling or disabling chains whose desired state changed.
// It returns the number of state transitions performed.
func (m *Manager) EvaluateSchedules() int {
	now := m.clk.Now()
	type action struct {
		sched  *schedule
		rec    *clientRec
		chain  string
		enable bool
	}
	m.mu.Lock()
	scheds := append([]*schedule{}, m.schedules...)
	m.mu.Unlock()
	var actions []action
	for _, s := range scheds {
		want := s.window.Contains(now)
		if s.enabled != nil && *s.enabled == want {
			continue
		}
		rec := m.clients.get(s.client)
		if rec == nil {
			continue
		}
		rec.mu.Lock()
		deployed := rec.at(deployment{chain: s.chain}) != ""
		rec.mu.Unlock()
		if !deployed {
			continue
		}
		actions = append(actions, action{sched: s, rec: rec, chain: s.chain, enable: want})
	}

	applied := 0
	for _, a := range actions {
		// Serialise against migrations: holding the client's migration lock
		// pins the chain's placement for the duration of the RPC, so the
		// call can never land on a station the chain is leaving mid-flight.
		// The placement is re-read under the lock — a migration, detach or
		// Unschedule may have raced the snapshot above.
		a.rec.migMu.Lock()
		m.mu.Lock()
		dropped := a.sched.dropped
		m.mu.Unlock()
		a.rec.mu.Lock()
		station := ""
		if _, attached := a.rec.chains[a.chain]; attached && !dropped {
			station = a.rec.at(deployment{chain: a.chain})
		}
		a.rec.mu.Unlock()
		if station == "" {
			a.rec.migMu.Unlock()
			continue
		}
		h, err := m.agentFor(station)
		if err != nil {
			a.rec.migMu.Unlock()
			continue
		}
		method := agent.MethodDisable
		if a.enable {
			method = agent.MethodEnable
		}
		if err := h.call(method, agent.ChainRef{Chain: a.chain}, nil); err != nil {
			a.rec.migMu.Unlock()
			continue
		}
		want := a.enable
		m.mu.Lock()
		a.sched.enabled = &want
		m.mu.Unlock()
		a.rec.migMu.Unlock()
		applied++
	}
	return applied
}

// RunScheduler evaluates schedules every interval on the wall clock until
// stop is closed. Virtual-clock simulations call EvaluateSchedules
// directly after advancing time instead.
func (m *Manager) RunScheduler(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.EvaluateSchedules()
		}
	}
}

// EvacuateStation migrates every deployment on station elsewhere: one that
// belongs on another station (a head whose client is attached there) goes
// there; one that belongs here, or nowhere the rule can name, goes where the
// placement rule (pick) says among the other stations. It returns the
// migration reports (one per deployment).
func (m *Manager) EvacuateStation(station string) ([]MigrationReport, error) {
	st := m.state()
	var reports []MigrationReport
	for _, j := range m.deploymentsOn(station) {
		j.rec.mu.Lock()
		cl := j.rec.whereabouts()
		j.rec.mu.Unlock()
		to, _ := wantAt(st, cl, j.spec, j.dep.seg, "")
		var why choice
		if to == "" || to == station {
			var ok bool
			if why, ok = m.place(m.StationInfos(station), hintFor(j.spec, station)); !ok {
				return reports, fmt.Errorf("%w: no station to evacuate %s/%s to",
					ErrUnknownStation, j.client, j.spec.Name)
			}
			to = why.station
		}
		j.rec.migMu.Lock()
		rep, _ := m.moveSegment(trace.Context{}, j.client, j.rec, hop{j.dep, station, to}, st.strategy, nil)
		j.rec.migMu.Unlock()
		rep.why = why
		m.recordMigration(rep)
		reports = append(reports, rep)
	}
	return reports, nil
}
