// Package dnslb implements GNF's DNS load balancer NF — the third of the
// paper's demo functions. For configured service names it either answers
// client queries directly at the edge (respond mode, round-robin over the
// backend pool) or rewrites upstream responses' A records (rewrite mode).
// The round-robin cursor and per-backend counts are migration state, so a
// roaming client keeps its balancing continuity.
package dnslb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

// Mode selects how the balancer intervenes.
type Mode uint8

// Balancer modes.
const (
	// Respond answers matching queries authoritatively at the edge.
	Respond Mode = iota
	// RewriteResponses lets queries through and rewrites the upstream
	// answers.
	RewriteResponses
)

// Balancer is the NF instance.
type Balancer struct {
	name    string
	service string // lowercase FQDN handled by this balancer
	mode    Mode
	ttl     uint32

	mu       sync.Mutex
	backends []packet.IP
	next     uint64               // index of the next backend to hand out
	served   map[packet.IP]uint64 // backend -> answers handed out
	queries  uint64
	rewrites uint64
	parser   packet.Parser
	msg      packet.DNSMessage
}

// New creates a balancer for service with the given backend pool.
func New(name, service string, mode Mode, backends ...packet.IP) (*Balancer, error) {
	if len(backends) == 0 {
		return nil, errors.New("dnslb: empty backend pool")
	}
	return &Balancer{
		name:     name,
		service:  strings.ToLower(strings.TrimSuffix(service, ".")),
		mode:     mode,
		ttl:      30,
		backends: append([]packet.IP(nil), backends...),
		served:   make(map[packet.IP]uint64),
	}, nil
}

// Name implements nf.Function.
func (b *Balancer) Name() string { return b.name }

// Kind implements nf.Function.
func (b *Balancer) Kind() string { return "dnslb" }

// Service returns the balanced FQDN.
func (b *Balancer) Service() string { return b.service }

// pick advances the round-robin cursor. Called with mu held.
func (b *Balancer) pick() packet.IP {
	ip := b.backends[b.next]
	b.next = (b.next + 1) % uint64(len(b.backends))
	b.served[ip]++
	return ip
}

// Process implements nf.Function.
func (b *Balancer) Process(dir nf.Direction, frame []byte) nf.Output {
	return nf.ProcessOne(b, dir, frame)
}

// ProcessBatch implements nf.Function: one lock acquisition covers the
// batch. A query the balancer answers leaves as a reply; every other frame
// continues, a rewritten response as its rewritten copy.
func (b *Balancer) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, frame := range frames {
		if f, reply := b.balanceLocked(dir, frame); reply {
			out.Reverse = append(out.Reverse, f)
		} else {
			out.Forward = append(out.Forward, f)
		}
	}
}

// balanceLocked handles one frame with mu held: the frame to emit, and
// whether it is a reply going back.
func (b *Balancer) balanceLocked(dir nf.Direction, frame []byte) ([]byte, bool) {
	if err := b.parser.Parse(frame); err != nil || !b.parser.Has(packet.LayerUDP) {
		return frame, false
	}
	isQuery := dir == nf.Outbound && b.parser.UDP.DstPort == 53
	isResponse := dir == nf.Inbound && b.parser.UDP.SrcPort == 53
	if !isQuery && !isResponse {
		return frame, false
	}
	if err := b.msg.Decode(b.parser.UDP.Payload()); err != nil {
		return frame, false
	}
	if len(b.msg.Questions) == 0 || b.msg.Questions[0].Name != b.service {
		return frame, false
	}

	switch {
	case isQuery && b.mode == Respond && !b.msg.Response:
		b.queries++
		resp := packet.AnswerA(&b.msg, b.ttl, b.pick())
		wire, err := resp.Append(nil)
		if err != nil {
			return frame, false
		}
		p := &b.parser
		return packet.BuildUDP(p.Eth.Dst, p.Eth.Src, p.IP.Dst, p.IP.Src,
			p.UDP.DstPort, p.UDP.SrcPort, wire), true

	case isResponse && b.mode == RewriteResponses && b.msg.Response:
		changed := false
		for i := range b.msg.Answers {
			if b.msg.Answers[i].Type == packet.DNSTypeA {
				b.msg.Answers[i].A = b.pick()
				b.msg.Answers[i].TTL = b.ttl
				changed = true
			}
		}
		if !changed {
			return frame, false
		}
		b.rewrites++
		wire, err := b.msg.Append(nil)
		if err != nil {
			return frame, false
		}
		out, err := packet.ReplaceUDPPayload(frame, wire)
		if err != nil {
			return frame, false
		}
		return out, false
	}
	return frame, false
}

// NFStats implements nf.StatsReporter.
func (b *Balancer) NFStats() map[string]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]uint64{"queries_answered": b.queries, "responses_rewritten": b.rewrites}
	for ip, n := range b.served {
		out["backend_"+ip.String()] = n
	}
	return out
}

// A balancer's state is its round-robin cursor, queries answered and
// responses rewritten (uvarints), then the count and the answers handed
// out per backend, in address order: IP, count (uvarint).

// ExportState implements container.StateHandler.
func (b *Balancer) ExportState() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ips := make([]packet.IP, 0, len(b.served))
	for ip := range b.served {
		ips = append(ips, ip)
	}
	slices.SortFunc(ips, compareIPs)
	var w nf.RecordWriter
	w.Uvarint(b.next)
	w.Uvarint(b.queries)
	w.Uvarint(b.rewrites)
	w.Uvarint(uint64(len(ips)))
	for _, ip := range ips {
		w.IP(ip)
		w.Uvarint(b.served[ip])
	}
	return w, nil
}

// ImportState implements container.StateHandler. The cursor is taken
// modulo this balancer's pool, so it always names a backend.
func (b *Balancer) ImportState(data []byte) error {
	r := nf.NewRecordReader(data)
	next, queries, rewrites := r.Uvarint(), r.Uvarint(), r.Uvarint()
	ips := make([]packet.IP, r.Count())
	counts := make([]uint64, len(ips))
	for i := range ips {
		ips[i], counts[i] = r.IP(), r.Uvarint()
		if i > 0 && compareIPs(ips[i-1], ips[i]) >= 0 {
			return fmt.Errorf("%w: dnslb backends out of address order", nf.ErrBadRecord)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next = next % uint64(len(b.backends))
	b.queries, b.rewrites = queries, rewrites
	b.served = make(map[packet.IP]uint64, len(ips))
	for i, ip := range ips {
		b.served[ip] = counts[i]
	}
	return nil
}

func compareIPs(x, y packet.IP) int { return cmp.Compare(x.Uint32(), y.Uint32()) }

func init() {
	nf.Default.Register("dnslb", func(name string, params nf.Params) (nf.Function, error) {
		var backends []packet.IP
		for _, s := range strings.Split(params.Get("backends", ""), ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			ip, ok := packet.ParseIP(s)
			if !ok {
				return nil, fmt.Errorf("dnslb: bad backend %q", s)
			}
			backends = append(backends, ip)
		}
		mode := Respond
		switch params.Get("mode", "respond") {
		case "respond":
		case "rewrite":
			mode = RewriteResponses
		default:
			return nil, fmt.Errorf("dnslb: bad mode %q", params["mode"])
		}
		return New(name, params.Get("service", "svc.gnf"), mode, backends...)
	})
}
