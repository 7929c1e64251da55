// Package firewall implements GNF's iptables-style packet firewall NF — the
// first of the paper's three demo functions. Rules are evaluated in order
// against the 5-tuple (plus direction); the first match wins, otherwise the
// default policy applies. Rule hit counters are exported as migration
// state, mirroring how iptables counters travel with a checkpointed
// container.
package firewall

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

// Target is a rule action.
type Target uint8

// Rule targets.
const (
	Accept Target = iota
	Drop
)

// String implements fmt.Stringer.
func (t Target) String() string {
	if t == Drop {
		return "drop"
	}
	return "accept"
}

// CIDR is an IPv4 prefix. A zero Bits with zero IP matches everything.
type CIDR struct {
	IP   packet.IP
	Bits int
}

// Contains reports whether ip falls inside the prefix.
func (c CIDR) Contains(ip packet.IP) bool {
	if c.Bits == 0 && c.IP.IsZero() {
		return true
	}
	mask := ^uint32(0) << (32 - uint32(c.Bits))
	if c.Bits == 0 {
		mask = 0
	}
	return ip.Uint32()&mask == c.IP.Uint32()&mask
}

// String renders "a.b.c.d/len" or "any".
func (c CIDR) String() string {
	if c.Bits == 0 && c.IP.IsZero() {
		return "any"
	}
	return fmt.Sprintf("%s/%d", c.IP, c.Bits)
}

// ParseCIDR accepts "any", "a.b.c.d" (= /32) or "a.b.c.d/len".
func ParseCIDR(s string) (CIDR, error) {
	if s == "any" || s == "*" || s == "" {
		return CIDR{}, nil
	}
	ipStr, lenStr, hasLen := strings.Cut(s, "/")
	ip, ok := packet.ParseIP(ipStr)
	if !ok {
		return CIDR{}, fmt.Errorf("firewall: bad IP %q", ipStr)
	}
	bits := 32
	if hasLen {
		n, err := strconv.Atoi(lenStr)
		if err != nil || n < 0 || n > 32 {
			return CIDR{}, fmt.Errorf("firewall: bad prefix length %q", lenStr)
		}
		bits = n
	}
	return CIDR{IP: ip, Bits: bits}, nil
}

// PortRange matches transport ports; the zero value matches any port.
type PortRange struct{ Lo, Hi uint16 }

// Contains reports whether p falls in the range.
func (r PortRange) Contains(p uint16) bool {
	if r.Lo == 0 && r.Hi == 0 {
		return true
	}
	return p >= r.Lo && p <= r.Hi
}

// String renders "lo-hi", "lo" or "any".
func (r PortRange) String() string {
	switch {
	case r.Lo == 0 && r.Hi == 0:
		return "any"
	case r.Lo == r.Hi:
		return strconv.Itoa(int(r.Lo))
	default:
		return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
	}
}

func parsePorts(s string) (PortRange, error) {
	if s == "any" || s == "*" || s == "" {
		return PortRange{}, nil
	}
	lo, hi, ranged := strings.Cut(s, "-")
	l, err := strconv.ParseUint(lo, 10, 16)
	if err != nil {
		return PortRange{}, fmt.Errorf("firewall: bad port %q", s)
	}
	h := l
	if ranged {
		h, err = strconv.ParseUint(hi, 10, 16)
		if err != nil || h < l {
			return PortRange{}, fmt.Errorf("firewall: bad port range %q", s)
		}
	}
	return PortRange{Lo: uint16(l), Hi: uint16(h)}, nil
}

// anyDir marks a rule matching both directions.
const anyDir = nf.Direction(0xff)

// Rule is one ordered firewall entry.
type Rule struct {
	Action Target
	Dir    nf.Direction // anyDir matches both
	Proto  uint8        // 0 = any
	Src    CIDR
	Dst    CIDR
	SPorts PortRange
	DPorts PortRange
}

// String renders the rule in the textual rule grammar.
func (r Rule) String() string {
	dir := "any"
	switch r.Dir {
	case nf.Outbound:
		dir = "out"
	case nf.Inbound:
		dir = "in"
	}
	proto := "any"
	if r.Proto != 0 {
		proto = packet.ProtoName(r.Proto)
	}
	return fmt.Sprintf("%s %s %s %s %s %s %s", r.Action, dir, proto, r.Src, r.SPorts, r.Dst, r.DPorts)
}

// ParseRule parses "action dir proto src sports dst dports", e.g.
// "drop out tcp any any 93.184.216.34/32 80". Fields past the action may
// be omitted right-to-left.
func ParseRule(s string) (Rule, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Rule{}, errors.New("firewall: empty rule")
	}
	r := Rule{Dir: anyDir}
	switch fields[0] {
	case "accept":
		r.Action = Accept
	case "drop":
		r.Action = Drop
	default:
		return Rule{}, fmt.Errorf("firewall: bad action %q", fields[0])
	}
	get := func(i int) string {
		if i < len(fields) {
			return fields[i]
		}
		return "any"
	}
	switch get(1) {
	case "out":
		r.Dir = nf.Outbound
	case "in":
		r.Dir = nf.Inbound
	case "any":
		r.Dir = anyDir
	default:
		return Rule{}, fmt.Errorf("firewall: bad direction %q", get(1))
	}
	switch get(2) {
	case "tcp":
		r.Proto = packet.ProtoTCP
	case "udp":
		r.Proto = packet.ProtoUDP
	case "icmp":
		r.Proto = packet.ProtoICMP
	case "any":
	default:
		return Rule{}, fmt.Errorf("firewall: bad proto %q", get(2))
	}
	var err error
	if r.Src, err = ParseCIDR(get(3)); err != nil {
		return Rule{}, err
	}
	if r.SPorts, err = parsePorts(get(4)); err != nil {
		return Rule{}, err
	}
	if r.Dst, err = ParseCIDR(get(5)); err != nil {
		return Rule{}, err
	}
	if r.DPorts, err = parsePorts(get(6)); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// ParseRules parses a semicolon-separated rule list.
func ParseRules(s string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := ParseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// Firewall is the NF instance.
type Firewall struct {
	name   string
	policy Target

	mu       sync.Mutex
	rules    []Rule
	hits     []uint64
	accepted uint64
	dropped  uint64
	parser   packet.Parser
}

// New creates a firewall with the given default policy and rules.
func New(name string, policy Target, rules ...Rule) *Firewall {
	return &Firewall{name: name, policy: policy, rules: rules, hits: make([]uint64, len(rules))}
}

// Name implements nf.Function.
func (f *Firewall) Name() string { return f.name }

// Kind implements nf.Function.
func (f *Firewall) Kind() string { return "firewall" }

// AppendRule adds a rule at the end of the table.
func (f *Firewall) AppendRule(r Rule) {
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.hits = append(f.hits, 0)
	f.mu.Unlock()
}

// Rules returns a copy of the rule table.
func (f *Firewall) Rules() []Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Rule(nil), f.rules...)
}

// Process implements nf.Function.
func (f *Firewall) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(f, dir, frame)
}

// ProcessBatch implements nf.Function: one lock acquisition covers
// the whole batch, the table is scanned once per same-flow run (the memo —
// matching rule and action — lives and dies inside the lock AppendRule
// takes), counters move per frame, dropped frames are recycled into the
// frame pool.
func (f *Firewall) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var (
		run    packet.Run
		rule   int
		action Target
	)
	for _, frame := range frames {
		if !run.Continues(frame) {
			if err := f.parser.Parse(frame); err != nil {
				f.dropped++
				packet.ReturnFrame(frame)
				continue
			}
			rule, action = f.matchLocked(dir)
			run.Start(frame)
		}
		if rule >= 0 {
			f.hits[rule]++
		}
		if action == Drop {
			f.dropped++
			packet.ReturnFrame(frame)
			continue
		}
		f.accepted++
		out.Forward = append(out.Forward, frame)
	}
}

// matchLocked evaluates the table for the frame f.parser holds, with f.mu
// held: the index of the first matching rule and its action, or -1 and the
// default policy.
func (f *Firewall) matchLocked(dir nf.Direction) (rule int, action Target) {
	// Non-IP frames (ARP) always pass: the firewall is an L3 function.
	if !f.parser.Has(packet.LayerIPv4) {
		return -1, Accept
	}
	ft, hasPorts := f.parser.FiveTuple()
	for i := range f.rules {
		r := &f.rules[i]
		if r.Dir != anyDir && r.Dir != dir {
			continue
		}
		if r.Proto != 0 && r.Proto != f.parser.IP.Proto {
			continue
		}
		if !r.Src.Contains(f.parser.IP.Src) || !r.Dst.Contains(f.parser.IP.Dst) {
			continue
		}
		if hasPorts {
			if !r.SPorts.Contains(ft.Src.Port) || !r.DPorts.Contains(ft.Dst.Port) {
				continue
			}
		} else if r.SPorts != (PortRange{}) || r.DPorts != (PortRange{}) {
			continue
		}
		return i, r.Action
	}
	return -1, f.policy
}

// NFStats implements nf.StatsReporter.
func (f *Firewall) NFStats() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]uint64{"accepted": f.accepted, "dropped": f.dropped}
	for i, h := range f.hits {
		out[fmt.Sprintf("rule%d_hits", i)] = h
	}
	return out
}

// A firewall's state is its accepted and dropped counts, then the count of
// rules and each rule's hits, in table order (all uvarints).

// ExportState implements container.StateHandler (counters migrate).
func (f *Firewall) ExportState() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var w nf.RecordWriter
	w.Uvarint(f.accepted)
	w.Uvarint(f.dropped)
	w.Uvarint(uint64(len(f.hits)))
	for _, h := range f.hits {
		w.Uvarint(h)
	}
	return w, nil
}

// ImportState implements container.StateHandler.
func (f *Firewall) ImportState(data []byte) error {
	r := nf.NewRecordReader(data)
	accepted, dropped := r.Uvarint(), r.Uvarint()
	hits := make([]uint64, r.Count())
	for i := range hits {
		hits[i] = r.Uvarint()
	}
	if err := r.Finish(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(hits) != len(f.rules) {
		return fmt.Errorf("firewall: state has %d rule counters, table has %d rules", len(hits), len(f.rules))
	}
	f.accepted, f.dropped = accepted, dropped
	copy(f.hits, hits)
	return nil
}

func init() {
	nf.Default.RegisterKind("firewall", nf.KindInfo{Shareable: true}, func(name string, params nf.Params) (nf.Function, error) {
		policy := Accept
		switch params.Get("policy", "accept") {
		case "accept":
		case "drop":
			policy = Drop
		default:
			return nil, fmt.Errorf("firewall: bad policy %q", params["policy"])
		}
		rules, err := ParseRules(params.Get("rules", ""))
		if err != nil {
			return nil, err
		}
		return New(name, policy, rules...), nil
	})
}
