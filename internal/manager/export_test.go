package manager

// Rendered is the steering rule's answer for the client's placements as they
// stand: the station steering it, toward where, and the ingress leg of every
// exclusive head, keyed "deployment@station" — the fault table's oracle
// for what the agents must hold.
func (m *Manager) Rendered(client string) (at, via string, legs map[string]string) {
	rec := m.clients.get(client)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	x := rec.station
	if _, err := m.agentFor(x); err != nil {
		x = ""
	}
	r := steerRule(x, rec.placed, rec.rendered)
	legs = make(map[string]string, len(r.legs))
	for dep, to := range r.legs {
		legs[dep.name()+"@"+rec.placed[dep].station] = to
	}
	return r.at, r.via, legs
}
