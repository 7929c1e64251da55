// Package spec defines GNF's declarative desired-state layer: a versioned
// Spec document describing what the fleet *should* look like — which
// clients carry which NF chains (with QoS budgets and activation
// schedules), which clients are pinned to cloud sites, how large shared
// instance pools should be, and which migration strategy governs the
// manager — plus the semantic Diff that turns the gap
// between a Spec and an observed Actual snapshot into the minimal set of
// imperative actions. The reconcile package drives those actions; here
// lives only pure data, canonical hashing, validation, and the diff.
//
// The design follows the declarative controllers of related systems:
// sfc-controller renders chains from a versioned config and re-renders on
// change, metallb continuously reconciles watched config into speaker
// state. The Spec says which chains should run, wherever it comes from:
// PUT /api/spec, `gnfctl apply -f`, or a scenario's spec and apply-spec.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"gnf/internal/manager"
)

// Version is the current spec document format version.
const Version = 1

// Chain is one desired NF chain: the manager-level ChainSpec (name,
// functions, QoS budget) plus an optional activation window.
type Chain struct {
	manager.ChainSpec
	// Schedule registers an activation window for the chain; absolute
	// times, applied by the manager's schedule evaluator. nil = always on.
	Schedule *manager.Window `json:"schedule,omitempty"`
}

// Client is the desired state of one client: its chain set and an
// optional cloud offload pin.
type Client struct {
	ID string `json:"id"`
	// Offload pins the client's chains to a GNFC cloud site; "" means the
	// chains live at the edge and roam with the client.
	Offload string `json:"offload,omitempty"`
	// Chains is the authoritative chain set: chains attached to the client
	// but absent here are detached by reconciliation.
	Chains []Chain `json:"chains,omitempty"`
}

// PoolTarget pins a shared NF instance pool's replica count on a station.
// Pools are keyed the way agents key them: the canonical whole-chain
// config hash plus the readable kind signature.
type PoolTarget struct {
	Station    string `json:"station"`
	Kinds      string `json:"kinds"`
	ConfigHash string `json:"config_hash"`
	Replicas   int    `json:"replicas"`
}

// Spec is one complete desired-state document. Clients the spec does not
// list are left alone — partial ownership, so an operator can declare a
// fleet subset without mass-detaching everyone else's chains.
type Spec struct {
	// Version of the document format (0 is normalized to the current 1).
	Version int `json:"version,omitempty"`
	// Strategy selects the roaming migration strategy (cold, stateful,
	// live); "" keeps the active one.
	Strategy string       `json:"strategy,omitempty"`
	Clients  []Client     `json:"clients,omitempty"`
	Pools    []PoolTarget `json:"pools,omitempty"`
}

// Clone deep-copies the spec (JSON round-trip: every field is data).
func (s *Spec) Clone() *Spec {
	raw, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; marshal cannot fail on a validated document.
		panic(fmt.Sprintf("spec: clone: %v", err))
	}
	var out Spec
	if err := json.Unmarshal(raw, &out); err != nil {
		panic(fmt.Sprintf("spec: clone: %v", err))
	}
	return &out
}

// Normalize puts the spec in canonical order — clients by ID, chains by
// name, pools by (station, kinds, hash) — and pins the version, so that
// two specs describing the same desired state hash identically regardless
// of declaration order.
func (s *Spec) Normalize() {
	if s.Version == 0 {
		s.Version = Version
	}
	sort.Slice(s.Clients, func(i, j int) bool { return s.Clients[i].ID < s.Clients[j].ID })
	for i := range s.Clients {
		chains := s.Clients[i].Chains
		sort.Slice(chains, func(a, b int) bool { return chains[a].Name < chains[b].Name })
	}
	sort.Slice(s.Pools, func(i, j int) bool {
		a, b := s.Pools[i], s.Pools[j]
		if a.Station != b.Station {
			return a.Station < b.Station
		}
		if a.Kinds != b.Kinds {
			return a.Kinds < b.Kinds
		}
		return a.ConfigHash < b.ConfigHash
	})
}

// Hash is the spec's canonical content hash: sha256 over the normalized
// JSON form (JSON map keys marshal sorted, so parameter maps are
// order-insensitive). Two specs with equal hashes describe the same
// desired state; the reconciler stamps convergence generations on hash
// changes.
func (s *Spec) Hash() string {
	c := s.Clone()
	c.Normalize()
	raw, _ := json.Marshal(c)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// ChainConfigHash is the canonical content hash of one attached chain
// configuration (name, functions with parameters, QoS budget). The diff
// uses it to decide whether an attached chain matches its desired form or
// must be replaced.
func ChainConfigHash(cs manager.ChainSpec) string {
	raw, _ := json.Marshal(cs)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// validStrategies mirrors the manager's spec-facing strategy set.
var validStrategies = map[string]bool{"cold": true, "stateful": true, "live": true}

// Validate checks structural consistency: unique IDs, non-empty chains,
// sane budgets and windows, a known strategy name.
func (s *Spec) Validate() error {
	if s.Version != 0 && s.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (want %d)", s.Version, Version)
	}
	if s.Strategy != "" && !validStrategies[s.Strategy] {
		return fmt.Errorf("spec: unknown strategy %q (want cold, stateful or live)", s.Strategy)
	}
	clients := map[string]bool{}
	for _, c := range s.Clients {
		if c.ID == "" {
			return fmt.Errorf("spec: client with empty id")
		}
		if clients[c.ID] {
			return fmt.Errorf("spec: duplicate client %s", c.ID)
		}
		clients[c.ID] = true
		chains := map[string]bool{}
		for _, ch := range c.Chains {
			if ch.Name == "" {
				return fmt.Errorf("spec: client %s: chain with empty name", c.ID)
			}
			if chains[ch.Name] {
				return fmt.Errorf("spec: client %s: duplicate chain %s", c.ID, ch.Name)
			}
			chains[ch.Name] = true
			if len(ch.Functions) == 0 {
				return fmt.Errorf("spec: client %s: chain %s has no functions", c.ID, ch.Name)
			}
			for i, fn := range ch.Functions {
				if fn.Kind == "" {
					return fmt.Errorf("spec: client %s: chain %s function %d has no kind", c.ID, ch.Name, i)
				}
			}
			// Affinity tags: unknown values and layouts the segment runtime
			// cannot honour (near-client behind an anchored segment) are
			// spec errors, not attach-time surprises.
			if err := manager.ValidateSegments(ch.ChainSpec); err != nil {
				return fmt.Errorf("spec: client %s: %v", c.ID, err)
			}
			if ch.MaxRTTMs < 0 {
				return fmt.Errorf("spec: client %s: chain %s has negative max_rtt_ms", c.ID, ch.Name)
			}
			if w := ch.Schedule; w != nil {
				if w.EnableAt.IsZero() {
					return fmt.Errorf("spec: client %s: chain %s schedule has no enable_at", c.ID, ch.Name)
				}
				if !w.DisableAt.IsZero() && !w.DisableAt.After(w.EnableAt) {
					return fmt.Errorf("spec: client %s: chain %s schedule disables before it enables", c.ID, ch.Name)
				}
			}
		}
	}
	pools := map[string]bool{}
	for _, p := range s.Pools {
		if p.Station == "" || p.ConfigHash == "" || p.Kinds == "" {
			return fmt.Errorf("spec: pool target needs station, kinds and config_hash")
		}
		if p.Replicas < 1 {
			return fmt.Errorf("spec: pool %s/%s needs replicas >= 1, got %d", p.Station, p.Kinds, p.Replicas)
		}
		key := p.Station + "|" + p.Kinds + "|" + p.ConfigHash
		if pools[key] {
			return fmt.Errorf("spec: duplicate pool target %s/%s", p.Station, p.Kinds)
		}
		pools[key] = true
	}
	return nil
}
