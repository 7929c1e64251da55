package spec

import (
	"fmt"
	"sort"

	"gnf/internal/manager"
)

// ActionKind names one imperative manager operation the diff can emit.
type ActionKind string

const (
	ActionAttach     ActionKind = "attach"
	ActionDetach     ActionKind = "detach"
	ActionMigrate    ActionKind = "migrate"
	ActionSchedule   ActionKind = "schedule"
	ActionUnschedule ActionKind = "unschedule"
	ActionOffload    ActionKind = "offload"
	ActionRecall     ActionKind = "recall"
	ActionScale      ActionKind = "scale"
)

// Action is one minimal imperative step closing part of the gap between
// desired and actual state.
type Action struct {
	Kind      ActionKind `json:"kind"`
	Client    string     `json:"client,omitempty"`
	ChainName string     `json:"chain,omitempty"`
	// Chain carries the full desired chain for attach (spec + schedule).
	Chain *Chain `json:"chain_spec,omitempty"`
	// Segment selects a split-chain segment for migrate actions: 0 is the
	// head (or a whole unsplit chain), >= 1 an anchored segment.
	Segment int `json:"segment,omitempty"`
	// Station is the migrate target (the client's current station for
	// heads, the planned anchor for segments).
	Station string `json:"station,omitempty"`
	// Site is the offload target cloud site.
	Site string `json:"site,omitempty"`
	// Window is the desired schedule window for schedule actions.
	Window *manager.Window `json:"window,omitempty"`
	// Kinds/ConfigHash/Replicas identify and size a pool for scale actions.
	Kinds      string `json:"kinds,omitempty"`
	ConfigHash string `json:"config_hash,omitempty"`
	Replicas   int    `json:"replicas,omitempty"`
	// Reason explains why the diff emitted the action — surfaced by
	// dry-run and gnfctl diff so operators can review a plan.
	Reason string `json:"reason,omitempty"`
}

// Key is the action's identity for retry/backoff bookkeeping: stable
// across reconcile passes as long as the same delta persists.
func (a Action) Key() string {
	return fmt.Sprintf("%s|%s|%s|%d|%s|%s|%s|%d", a.Kind, a.Client, a.ChainName, a.Segment, a.Station, a.Site, a.ConfigHash, a.Replicas)
}

func (a Action) String() string {
	switch a.Kind {
	case ActionScale:
		return fmt.Sprintf("scale %s %s -> %d replicas (%s)", a.Station, a.Kinds, a.Replicas, a.Reason)
	case ActionOffload:
		return fmt.Sprintf("offload %s -> %s (%s)", a.Client, a.Site, a.Reason)
	case ActionRecall:
		return fmt.Sprintf("recall %s (%s)", a.Client, a.Reason)
	case ActionMigrate:
		if a.Segment > 0 {
			return fmt.Sprintf("migrate %s/%s segment %d -> %s (%s)", a.Client, a.ChainName, a.Segment, a.Station, a.Reason)
		}
		return fmt.Sprintf("migrate %s/%s -> %s (%s)", a.Client, a.ChainName, a.Station, a.Reason)
	default:
		return fmt.Sprintf("%s %s/%s (%s)", a.Kind, a.Client, a.ChainName, a.Reason)
	}
}

// ActualChain is one observed attached chain.
type ActualChain struct {
	Spec       manager.ChainSpec
	DeployedOn string // head placement for split chains
	// Settled reports whether the chain's current placement satisfies the
	// desired invariant (co-located with the client, or within its QoS
	// budget over the topology, or on its offload site).
	Settled bool
	// Segments maps anchored segment index (>= 1) to its hosting station
	// for split chains; nil otherwise.
	Segments map[int]string
	// SegmentPlan is the manager's desired station per segment at snapshot
	// time (index 0 = head); nil when the chain is unsplit or the client
	// is detached.
	SegmentPlan []string
}

// ActualClient is one observed client: where it is attached, whether it
// is offloaded, its chains and schedule windows.
type ActualClient struct {
	Station string
	Offload string
	Chains  map[string]ActualChain
	Windows map[string]manager.Window
}

// PoolState is one observed shared-instance pool on a station.
type PoolState struct {
	Kinds      string
	ConfigHash string
	Refs       int
	Replicas   int
}

// Actual is a point-in-time snapshot of observed system state, as built
// by the reconcile package from the Manager's query surface.
type Actual struct {
	Clients map[string]ActualClient
	Pools   map[string][]PoolState
}

// Diff computes the minimal ordered action list that moves actual toward
// desired. Ordering matters within a client: replaced chains detach
// before the new config attaches, and offload transitions recall before
// re-offloading elsewhere.
//
// Scope rules: the spec governs only the clients it lists — unlisted
// actual clients are untouched. Desired clients not present in the
// snapshot at all (never attached) are deferred, not errors: they
// converge once the client appears. Attach/offload/recall/migrate need a
// connected client (station != ""); detach and unschedule work
// regardless, because the manager accepts them for roaming-disconnected
// clients.
func Diff(desired *Spec, actual *Actual) []Action {
	var out []Action
	for _, dc := range desired.Clients {
		ac, ok := actual.Clients[dc.ID]
		if !ok {
			// Client never attached: nothing observable to act on yet.
			continue
		}
		out = append(out, diffClient(dc, ac)...)
	}
	out = append(out, diffPools(desired, actual)...)
	return out
}

func diffClient(dc Client, ac ActualClient) []Action {
	var out []Action
	desired := make(map[string]Chain, len(dc.Chains))
	for _, ch := range dc.Chains {
		desired[ch.Name] = ch
	}

	// Pass 1: existing chains — drop undesired ones, replace changed ones.
	// replaced remembers chains we detached this pass so the attach half of
	// a config change is emitted below alongside fresh attaches.
	replaced := map[string]bool{}
	for _, name := range sortedKeys(ac.Chains) {
		have := ac.Chains[name]
		want, ok := desired[name]
		if !ok {
			out = append(out, Action{Kind: ActionDetach, Client: dc.ID, ChainName: name,
				Reason: "chain not in desired spec"})
			continue
		}
		if ChainConfigHash(have.Spec) != ChainConfigHash(want.ChainSpec) {
			out = append(out, Action{Kind: ActionDetach, Client: dc.ID, ChainName: name,
				Reason: "chain config changed"})
			replaced[name] = true
		}
	}

	connected := ac.Station != ""

	// Pass 2: missing chains (and the attach half of replacements).
	if connected {
		for _, ch := range dc.Chains {
			_, have := ac.Chains[ch.Name]
			if have && !replaced[ch.Name] {
				continue
			}
			ch := ch
			reason := "chain missing"
			if replaced[ch.Name] {
				reason = "chain config changed"
			}
			out = append(out, Action{Kind: ActionAttach, Client: dc.ID, ChainName: ch.Name,
				Chain: &ch, Reason: reason})
		}
	}

	// Pass 3: offload transitions. A site change is recall first; the
	// re-offload lands on the next pass once the recall took effect.
	switch {
	case ac.Offload != "" && ac.Offload != dc.Offload:
		reason := "offload not desired"
		if dc.Offload != "" {
			reason = fmt.Sprintf("offload site change %s -> %s", ac.Offload, dc.Offload)
		}
		out = append(out, Action{Kind: ActionRecall, Client: dc.ID, Reason: reason})
	case ac.Offload == "" && dc.Offload != "" && connected:
		out = append(out, Action{Kind: ActionOffload, Client: dc.ID, Site: dc.Offload,
			Reason: "offload pinned in desired spec"})
	}

	inTransition := ac.Offload != dc.Offload

	// Pass 4: drift repair — a matching chain stranded off its settled
	// placement (orphan after agent rejoin, failed migration) migrates to
	// the client's station. Skipped mid offload-transition: the
	// recall/offload above already moves every chain.
	if connected && !inTransition && ac.Offload == "" {
		for _, name := range sortedKeys(ac.Chains) {
			have := ac.Chains[name]
			want, ok := desired[name]
			if !ok || replaced[name] {
				continue
			}
			if ChainConfigHash(have.Spec) != ChainConfigHash(want.ChainSpec) {
				continue
			}
			if !have.Settled {
				out = append(out, Action{Kind: ActionMigrate, Client: dc.ID, ChainName: name,
					Station: ac.Station, Reason: fmt.Sprintf("drifted to %s", have.DeployedOn)})
			}
			// Split chains: anchored segments drift independently of the
			// head, so each is checked against the manager's segment plan
			// (a lost or mis-placed anchor migrates back; MigrateSegment
			// cold-deploys when the segment is gone entirely).
			for i := 1; i < len(have.SegmentPlan); i++ {
				if at := have.Segments[i]; at != have.SegmentPlan[i] {
					out = append(out, Action{Kind: ActionMigrate, Client: dc.ID, ChainName: name,
						Segment: i, Station: have.SegmentPlan[i],
						Reason: fmt.Sprintf("segment %d drifted to %q", i, at)})
				}
			}
		}
	}

	// Pass 5: schedule windows, only for chains that already exist in
	// their desired config (a fresh attach carries its window itself).
	for _, ch := range dc.Chains {
		have, ok := ac.Chains[ch.Name]
		if !ok || replaced[ch.Name] {
			continue
		}
		if ChainConfigHash(have.Spec) != ChainConfigHash(ch.ChainSpec) {
			continue
		}
		actualWin, hasWin := ac.Windows[ch.Name]
		switch {
		case ch.Schedule != nil && (!hasWin || actualWin != *ch.Schedule):
			w := *ch.Schedule
			out = append(out, Action{Kind: ActionSchedule, Client: dc.ID, ChainName: ch.Name,
				Window: &w, Reason: "schedule window differs"})
		case ch.Schedule == nil && hasWin:
			out = append(out, Action{Kind: ActionUnschedule, Client: dc.ID, ChainName: ch.Name,
				Reason: "no schedule in desired spec"})
		}
	}
	return out
}

// diffPools emits scale actions for desired pool targets whose live pool
// (matched on station + kinds + config hash, with active refs) runs a
// different replica count. Targets with no live pool are deferred — a
// pool only exists while shared chains reference it.
func diffPools(desired *Spec, actual *Actual) []Action {
	var out []Action
	for _, pt := range desired.Pools {
		for _, ps := range actual.Pools[pt.Station] {
			if ps.Kinds != pt.Kinds || ps.ConfigHash != pt.ConfigHash || ps.Refs == 0 {
				continue
			}
			if ps.Replicas != pt.Replicas {
				out = append(out, Action{Kind: ActionScale, Station: pt.Station,
					Kinds: pt.Kinds, ConfigHash: pt.ConfigHash, Replicas: pt.Replicas,
					Reason: fmt.Sprintf("pool at %d replicas, want %d", ps.Replicas, pt.Replicas)})
			}
		}
	}
	return out
}

func sortedKeys(m map[string]ActualChain) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
