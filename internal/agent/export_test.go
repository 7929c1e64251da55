package agent

import "gnf/internal/netem"

// ChainLegs returns the switch-side ends of an exclusive chain's two legs,
// ingress then egress, for tests that read their counters.
func (a *Agent) ChainLegs(chain string) (in, out *netem.Endpoint) {
	d, err := a.get(chain)
	if err != nil {
		return nil, nil
	}
	return d.res.endpoints[0], d.res.endpoints[1]
}

// SetSteerHook installs fn to run inside every steering swap, after the new
// rule set is on the switch and before it is published on its deployment.
func (a *Agent) SetSteerHook(fn func()) { a.steerHook = fn }
