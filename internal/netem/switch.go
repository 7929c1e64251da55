package netem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gnf/internal/packet"
)

// PortID identifies a switch port.
type PortID int

// Action is the verdict of a steering rule.
type Action uint8

// Steering actions.
const (
	// ActionNormal forwards by MAC learning (explicitly bypassing
	// lower-priority rules).
	ActionNormal Action = iota
	// ActionRedirect emits the frame on Rule.OutPort. It is how client
	// traffic is steered into an NF chain's ingress veth.
	ActionRedirect
	// ActionDrop discards the frame.
	ActionDrop
	// ActionGroup emits the frame on one member of the select group named
	// by Rule.Group, chosen by flow-key hash — the OVS select-group
	// analogue that spreads flows across the replicas of a shared NF
	// instance while keeping each flow on one replica.
	ActionGroup
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionRedirect:
		return "redirect"
	case ActionDrop:
		return "drop"
	case ActionGroup:
		return "group"
	default:
		return "normal"
	}
}

// Match selects frames for a steering rule. Nil fields are wildcards. The
// shape mirrors what GNF programs into the station's software switch: match
// a client's traffic subset, leave everything else untouched.
//
// Every field a Match can inspect is captured by packet.FlowKey — that
// property is what lets the switch cache verdicts per flow. A new match
// field must be added to FlowKey too, or cached verdicts would leak
// across flows the new field distinguishes.
type Match struct {
	InPort    *PortID
	SrcMAC    *packet.MAC
	DstMAC    *packet.MAC
	EtherType *uint16 // inner EtherType (802.1Q tags are looked through)
	// VID matches the outermost 802.1Q VLAN ID; untagged frames never
	// match a VID rule.
	VID     *uint16
	SrcIP   *packet.IP
	DstIP   *packet.IP
	Proto   *uint8
	SrcPort *uint16
	DstPort *uint16
}

// Matches evaluates the match against a parsed frame.
func (m *Match) Matches(in PortID, p *packet.Parser) bool {
	if m.InPort != nil && *m.InPort != in {
		return false
	}
	if m.SrcMAC != nil && *m.SrcMAC != p.Eth.Src {
		return false
	}
	if m.DstMAC != nil && *m.DstMAC != p.Eth.Dst {
		return false
	}
	if m.EtherType != nil && *m.EtherType != p.Eth.EtherType {
		return false
	}
	if m.VID != nil && (!p.Eth.Tagged || *m.VID != p.Eth.VID) {
		return false
	}
	needIP := m.SrcIP != nil || m.DstIP != nil || m.Proto != nil || m.SrcPort != nil || m.DstPort != nil
	if !needIP {
		return true
	}
	if !p.Has(packet.LayerIPv4) {
		return false
	}
	if m.SrcIP != nil && *m.SrcIP != p.IP.Src {
		return false
	}
	if m.DstIP != nil && *m.DstIP != p.IP.Dst {
		return false
	}
	if m.Proto != nil && *m.Proto != p.IP.Proto {
		return false
	}
	if m.SrcPort != nil || m.DstPort != nil {
		ft, ok := p.FiveTuple()
		if !ok {
			return false
		}
		if m.SrcPort != nil && *m.SrcPort != ft.Src.Port {
			return false
		}
		if m.DstPort != nil && *m.DstPort != ft.Dst.Port {
			return false
		}
	}
	return true
}

// Rule is one steering entry. Higher Priority wins; ties break by lower ID
// (insertion order).
type Rule struct {
	ID       int
	Priority int
	Match    Match
	Action   Action
	OutPort  PortID // for ActionRedirect
	Group    int    // for ActionGroup: select-group ID
}

// swState is the immutable control-plane snapshot the forwarding fast
// path reads: ports, steering rules (sorted), and pinned MACs. Mutators
// clone it, edit the clone, bump gen, and publish it atomically, so the
// per-frame pipeline never takes a lock to read any of this.
type swState struct {
	gen    uint64
	ports  map[PortID]*swPort
	pinned map[packet.MAC]PortID
	rules  []Rule // sorted: higher priority first, then lower ID
	// groups are the select groups ActionGroup rules fan into. Member
	// slices are immutable once published; SetGroup installs a fresh one.
	groups map[int][]PortID
	// flood is the precomputed flood set (non-service ports); the fast
	// path only has to skip the arrival port.
	flood []*swPort
}

// clone deep-copies the maps and the rule slice; *swPort values and group
// member slices are themselves immutable after publication, so they are
// shared.
func (st *swState) clone() *swState {
	next := &swState{
		gen:    st.gen,
		ports:  make(map[PortID]*swPort, len(st.ports)),
		pinned: make(map[packet.MAC]PortID, len(st.pinned)),
		rules:  append([]Rule(nil), st.rules...),
		groups: make(map[int][]PortID, len(st.groups)),
	}
	for id, p := range st.ports {
		next.ports[id] = p
	}
	for mac, port := range st.pinned {
		next.pinned[mac] = port
	}
	for id, members := range st.groups {
		next.groups[id] = members
	}
	return next
}

// refreshFlood recomputes the flood set after port changes.
func (st *swState) refreshFlood() {
	st.flood = st.flood[:0]
	for _, sp := range st.ports {
		if !sp.service {
			st.flood = append(st.flood, sp)
		}
	}
}

// Switch is an L2 learning switch with a priority steering table, the
// emulation of the OVS instance on every GNF station.
//
// Forwarding is a read-mostly fast path: control-plane state lives in an
// immutable snapshot behind an atomic pointer (copy-on-write updates),
// steering verdicts are cached per flow with generation-stamped entries,
// and MAC learning goes through a sharded FDB — the per-frame pipeline
// takes no global lock, so concurrent ports forward in parallel.
type Switch struct {
	name string

	ctrl      sync.Mutex // serialises control-plane mutations only
	nextID    int
	nextGroup int

	state atomic.Pointer[swState]
	fdb   *fdbTable
	cache flowCache

	// Per-frame counters are striped by arrival port: with the table
	// mutex gone, shared counter cache lines would be the next point of
	// serialisation.
	rxFrames    stripedCounter
	dropped     stripedCounter
	flooded     stripedCounter
	redirects   stripedCounter
	cacheHits   stripedCounter
	cacheMisses stripedCounter
	batchFrames stripedCounter
	batchRuns   stripedCounter

	// sampler, when armed, records one of every N forwarding verdicts
	// (see sampler.go). Nil when disabled: the fast path pays one atomic
	// pointer load to find out.
	sampler atomic.Pointer[frameSampler]
}

type swPort struct {
	id      PortID
	ep      *Endpoint
	service bool
}

// NewSwitch creates an empty switch.
func NewSwitch(name string) *Switch {
	s := &Switch{name: name, fdb: newFDBTable()}
	s.state.Store(&swState{
		ports:  make(map[PortID]*swPort),
		pinned: make(map[packet.MAC]PortID),
		groups: make(map[int][]PortID),
	})
	return s
}

// mutate applies one copy-on-write control-plane update: clone the
// current snapshot, edit it, bump the generation (invalidating every
// cached flow verdict), publish.
func (s *Switch) mutate(edit func(st *swState)) {
	s.ctrl.Lock()
	defer s.ctrl.Unlock()
	next := s.state.Load().clone()
	edit(next)
	next.refreshFlood()
	next.gen++
	s.state.Store(next)
}

// PinMAC installs a sticky FDB entry that dynamic learning cannot
// override — what an access point does for an associated station. Without
// it, a client's own frames flooded back from the backhaul would repoint
// the FDB at the uplink (MAC flapping), which turns into a forwarding
// loop once offload tunnels put cycles in the physical topology.
//
// Pinned entries live in the snapshot and shadow the dynamic FDB on every
// lookup, so a learner racing the pin can at worst leave a dead dynamic
// entry behind — never redirect the client's traffic.
func (s *Switch) PinMAC(mac packet.MAC, port PortID) {
	s.mutate(func(st *swState) { st.pinned[mac] = port })
	s.fdb.learn(mac, port)
}

// UnpinMAC removes a sticky entry (the dynamic entry goes with it).
func (s *Switch) UnpinMAC(mac packet.MAC) {
	s.mutate(func(st *swState) { delete(st.pinned, mac) })
	s.fdb.delete(mac)
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// Attach connects an endpoint to the switch as port id; frames arriving on
// the endpoint enter the pipeline. Attaching to an existing id replaces the
// port.
func (s *Switch) Attach(id PortID, ep *Endpoint) {
	s.attach(id, ep, false)
}

// AttachService connects a service port: the attachment point of an NF
// chain. Service ports are excluded from MAC learning and from flooding —
// the OVS no-flood discipline GNF applies to its NF ports — so frames
// re-entering the switch from a chain can never loop back into it; only
// explicit steering rules direct traffic into service ports.
func (s *Switch) AttachService(id PortID, ep *Endpoint) {
	s.attach(id, ep, true)
}

func (s *Switch) attach(id PortID, ep *Endpoint, service bool) {
	s.mutate(func(st *swState) {
		st.ports[id] = &swPort{id: id, ep: ep, service: service}
	})
	ep.SetBatchReceiver(func(frames [][]byte) { s.inputBatch(id, frames) })
}

// Detach removes a port and flushes FDB entries — dynamic *and* pinned —
// pointing at it. Pinned entries must go too: they are never re-learned,
// so a survivor would blackhole the client's traffic at a dead port
// forever (the reassociation pins the MAC at its new port).
func (s *Switch) Detach(id PortID) {
	var detached *swPort
	s.mutate(func(st *swState) {
		if p, ok := st.ports[id]; ok {
			detached = p
			delete(st.ports, id)
		}
		for mac, port := range st.pinned {
			if port == id {
				delete(st.pinned, mac)
			}
		}
	})
	if detached != nil {
		detached.ep.SetBatchReceiver(nil)
	}
	s.fdb.flushPort(id)
}

// AddRule installs a steering rule and returns its ID.
func (s *Switch) AddRule(r Rule) int {
	var id int
	s.mutate(func(st *swState) {
		s.nextID++
		r.ID = s.nextID
		id = r.ID
		st.rules = append(st.rules, r)
		sort.SliceStable(st.rules, func(i, j int) bool {
			if st.rules[i].Priority != st.rules[j].Priority {
				return st.rules[i].Priority > st.rules[j].Priority
			}
			return st.rules[i].ID < st.rules[j].ID
		})
	})
	return id
}

// RemoveRule deletes a rule by ID; it reports whether the rule existed.
func (s *Switch) RemoveRule(id int) bool {
	removed := false
	s.mutate(func(st *swState) {
		for i, r := range st.rules {
			if r.ID == id {
				st.rules = append(st.rules[:i], st.rules[i+1:]...)
				removed = true
				return
			}
		}
	})
	return removed
}

// Rules returns a copy of the steering table in evaluation order.
func (s *Switch) Rules() []Rule {
	return append([]Rule(nil), s.state.Load().rules...)
}

// AddGroup installs a select group over the given member ports and returns
// its ID. ActionGroup rules referencing the group hash each flow onto one
// member, so a flow sticks to one replica until the membership changes.
func (s *Switch) AddGroup(ports []PortID) int {
	var id int
	s.mutate(func(st *swState) {
		s.nextGroup++
		id = s.nextGroup
		st.groups[id] = append([]PortID(nil), ports...)
	})
	return id
}

// SetGroup replaces a group's membership (scale-out adds a replica's port,
// drain removes one before teardown). The generation bump republishes every
// cached verdict, so live flows re-hash over the new membership at their
// next frame. It reports whether the group existed.
func (s *Switch) SetGroup(id int, ports []PortID) bool {
	ok := false
	s.mutate(func(st *swState) {
		if _, exists := st.groups[id]; exists {
			st.groups[id] = append([]PortID(nil), ports...)
			ok = true
		}
	})
	return ok
}

// RemoveGroup deletes a group; rules still referencing it drop their
// traffic (like an OpenFlow group-miss). It reports whether it existed.
func (s *Switch) RemoveGroup(id int) bool {
	ok := false
	s.mutate(func(st *swState) {
		if _, exists := st.groups[id]; exists {
			delete(st.groups, id)
			ok = true
		}
	})
	return ok
}

// GroupPorts returns a copy of a group's membership.
func (s *Switch) GroupPorts(id int) ([]PortID, bool) {
	members, ok := s.state.Load().groups[id]
	return append([]PortID(nil), members...), ok
}

// steer computes the steering verdict for one frame: flow-cache hit, or a
// priority-ordered rule scan whose result is cached against st.gen if the
// cache admits the flow. The key is hashed once, for the admission filter,
// the bucket and the select group alike. The caller counts hits and misses.
func (s *Switch) steer(in PortID, p *packet.Parser, st *swState) (action Action, out PortID, hit bool) {
	key := flowCacheKey{in: in, fk: p.FlowKey()}
	flowHash := key.fk.Hash()
	h := flowHash ^ uint64(in)*0x9e3779b97f4a7c15 // one flow on two ports spreads
	cache := s.cache.load(nil)
	admitted := cache.admit(h)
	if admitted {
		if action, out, hit = cache.lookup(&key, h, st.gen); hit {
			return action, out, true
		}
	}
	// No rule matching leaves the zero verdict, ActionNormal.
	for i := range st.rules {
		if st.rules[i].Match.Matches(in, p) {
			action, out = st.rules[i].Action, st.rules[i].OutPort
			if action == ActionGroup {
				// Resolved here, so the cached verdict is a plain redirect: the
				// flow hash is a pure function of the cache key, and a change
				// of membership bumps the generation.
				action, out = resolveGroup(st, st.rules[i].Group, flowHash)
			}
			break
		}
	}
	if admitted && cache.fill(&key, h, st.gen, action, out) {
		s.cache.load(cache)
	}
	return action, out, false
}

// resolveGroup picks a select-group member by flow hash. An empty or
// missing group drops (group-miss semantics).
func resolveGroup(st *swState, group int, hash uint64) (Action, PortID) {
	members := st.groups[group]
	if len(members) == 0 {
		return ActionDrop, 0
	}
	return ActionRedirect, members[hash%uint64(len(members))]
}

// SwitchStats is a snapshot of switch counters.
type SwitchStats struct {
	RxFrames    uint64
	Dropped     uint64
	Flooded     uint64
	Redirects   uint64
	CacheHits   uint64
	CacheMisses uint64
	// BatchFrames / BatchRuns measure run amortisation on the batched
	// path: mean frames handled per steering decision is their ratio.
	BatchFrames uint64
	BatchRuns   uint64
	// SampledFrames counts verdicts captured by the 1-in-N frame sampler.
	SampledFrames uint64
	Ports         int
	Rules         int
	Groups        int
	FDBSize       int
	FlowEntries   int
}

// Stats returns current counters.
func (s *Switch) Stats() SwitchStats {
	st := s.state.Load()
	return SwitchStats{
		RxFrames:      s.rxFrames.Load(),
		Dropped:       s.dropped.Load(),
		Flooded:       s.flooded.Load(),
		Redirects:     s.redirects.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		BatchFrames:   s.batchFrames.Load(),
		BatchRuns:     s.batchRuns.Load(),
		SampledFrames: s.SampledFrames(),
		Ports:         len(st.ports),
		Rules:         len(st.rules),
		Groups:        len(st.groups),
		FDBSize:       s.fdb.size(),
		FlowEntries:   s.cache.size(st.gen),
	}
}

// LookupFDB reports the learned port for a MAC (pinned entries first).
func (s *Switch) LookupFDB(mac packet.MAC) (PortID, bool) {
	return s.lookupFDB(s.state.Load(), mac)
}

// lookupFDB resolves mac under snapshot st: pinned entries shadow the
// dynamic FDB.
func (s *Switch) lookupFDB(st *swState, mac packet.MAC) (PortID, bool) {
	if port, ok := st.pinned[mac]; ok {
		return port, ok
	}
	return s.fdb.lookup(mac)
}

// String implements fmt.Stringer.
func (s *Switch) String() string {
	st := s.Stats()
	return fmt.Sprintf("switch %s: ports=%d rules=%d fdb=%d rx=%d drop=%d flood=%d redirect=%d cache=%d/%d",
		s.name, st.Ports, st.Rules, st.FDBSize, st.RxFrames, st.Dropped, st.Flooded, st.Redirects,
		st.CacheHits, st.CacheHits+st.CacheMisses)
}
