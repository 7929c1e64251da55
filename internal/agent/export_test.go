package agent

import "gnf/internal/netem"

// ChainLegs returns the switch-side ends of an exclusive chain's two legs,
// ingress then egress, for tests that read their counters.
func (a *Agent) ChainLegs(chain string) (in, out *netem.Endpoint) {
	d, err := a.get(chain)
	if err != nil {
		return nil, nil
	}
	return d.endpoints[0], d.endpoints[1]
}
