// Package nat implements a source-NAT NF. Outbound flows are rewritten to
// a NAT address with a port allocated from a pool; inbound traffic to the
// NAT address is translated back. The NF proxy-ARPs for its NAT address
// with a stable virtual MAC, so return traffic is attracted through the
// container without extra steering rules. The translation table is
// exported as migration state — the paper's function-roaming mechanism must
// move exactly this kind of per-client middlebox state to keep flows alive.
package nat

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

// Errors returned by the translator.
var (
	ErrPortsExhausted = errors.New("nat: port pool exhausted")
)

// mapKey identifies an outbound flow pre-translation.
type mapKey struct {
	Proto   uint8
	SrcIP   packet.IP
	SrcPort uint16
}

// mapping records one translation. Seq stamps the dirty epoch the mapping
// was created at, so pre-copy migration rounds export only fresh flows.
type mapping struct {
	Key     mapKey
	NATPort uint16
	HostMAC packet.MAC // client's MAC for de-translation
	Seq     uint64
}

// NAT is the NF instance.
type NAT struct {
	name   string
	natIP  packet.IP
	vmac   packet.MAC
	lo, hi uint16

	mu                                   sync.Mutex
	byKey                                map[mapKey]*mapping
	byPort                               map[uint16]*mapping
	nextPort                             uint16
	seq                                  uint64 // dirty epoch, bumped per new mapping
	translated, detranslated, arpReplies uint64
	parser                               packet.Parser
}

// VirtualMAC derives the stable proxy-ARP MAC for a NAT address.
func VirtualMAC(ip packet.IP) packet.MAC {
	return packet.MAC{0x02, 0x4e, 0x41, 0x54, ip[2], ip[3]} // 02:"NAT":x:y
}

// New creates a NAT translating to natIP using ports [lo,hi].
func New(name string, natIP packet.IP, lo, hi uint16) (*NAT, error) {
	if lo == 0 || hi < lo {
		return nil, fmt.Errorf("nat: bad port range %d-%d", lo, hi)
	}
	return &NAT{
		name:     name,
		natIP:    natIP,
		vmac:     VirtualMAC(natIP),
		lo:       lo,
		hi:       hi,
		nextPort: lo,
		byKey:    make(map[mapKey]*mapping),
		byPort:   make(map[uint16]*mapping),
	}, nil
}

// Name implements nf.Function.
func (n *NAT) Name() string { return n.name }

// Kind implements nf.Function.
func (n *NAT) Kind() string { return "nat" }

// NATIP returns the public-side address.
func (n *NAT) NATIP() packet.IP { return n.natIP }

// Mappings returns the number of active translations.
func (n *NAT) Mappings() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.byKey)
}

// allocatePort finds a free NAT port. Called with mu held.
func (n *NAT) allocatePort() (uint16, error) {
	span := int(n.hi-n.lo) + 1
	for i := 0; i < span; i++ {
		p := n.nextPort
		n.nextPort++
		if n.nextPort > n.hi || n.nextPort < n.lo {
			n.nextPort = n.lo
		}
		if _, used := n.byPort[p]; !used {
			return p, nil
		}
	}
	return 0, ErrPortsExhausted
}

// Process implements nf.Function.
func (n *NAT) Process(dir nf.Direction, frame []byte) nf.Output { return nf.ProcessOne(n, dir, frame) }

// verdict is what the NAT does with every frame of one flow in one
// direction.
type verdict uint8

const (
	pass      verdict = iota // not ours to translate: forward untouched
	drop                     // no port left, or unsolicited inbound
	translate                // apply the flow's Rewrite
)

// ProcessBatch implements nf.Function: one lock acquisition covers
// the batch and the mapping is resolved once per same-flow run. The memo
// (verdict and Rewrite, which points into the mapping) lives and dies
// inside the lock every import takes. Dropped frames are recycled into the
// frame pool.
func (n *NAT) ProcessBatch(dir nf.Direction, frames [][]byte, out *nf.Output) {
	n.mu.Lock()
	defer n.mu.Unlock()
	translations := &n.translated
	if dir == nf.Inbound {
		translations = &n.detranslated
	}
	var (
		run packet.Run
		v   verdict
		rw  packet.Rewrite
	)
	for _, frame := range frames {
		if !run.Continues(frame) {
			if err := n.parser.Parse(frame); err != nil {
				out.Forward = append(out.Forward, frame)
				continue
			}
			// Proxy-ARP: answer who-has for the NAT address.
			if p := &n.parser; dir == nf.Inbound && p.Has(packet.LayerARP) &&
				p.ARP.Op == packet.ARPRequest && p.ARP.TargetIP == n.natIP {
				n.arpReplies++
				out.Reverse = append(out.Reverse,
					packet.BuildARP(packet.ARPReply, n.vmac, n.natIP, p.ARP.SenderHW, p.ARP.SenderIP))
				packet.ReturnFrame(frame)
				continue
			}
			v, rw = n.resolveLocked(dir)
			run.Start(frame)
		}
		if v == drop || (v == translate && rw.Apply(frame) != nil) {
			packet.ReturnFrame(frame)
			continue
		}
		if v == translate {
			*translations++
		}
		out.Forward = append(out.Forward, frame)
	}
}

// resolveLocked decides the flow of the frame n.parser holds, minting the
// outbound mapping on a flow's first frame. Called with mu held.
func (n *NAT) resolveLocked(dir nf.Direction) (verdict, packet.Rewrite) {
	p := &n.parser
	ft, ok := p.FiveTuple()
	if !ok || (p.IP.Proto != packet.ProtoTCP && p.IP.Proto != packet.ProtoUDP) {
		return pass, packet.Rewrite{}
	}
	if dir == nf.Outbound {
		key := mapKey{Proto: p.IP.Proto, SrcIP: p.IP.Src, SrcPort: ft.Src.Port}
		m, exists := n.byKey[key]
		if !exists {
			port, err := n.allocatePort()
			if err != nil {
				return drop, packet.Rewrite{} // no capacity: policed like a full conntrack table
			}
			n.seq++
			m = &mapping{Key: key, NATPort: port, HostMAC: p.Eth.Src, Seq: n.seq}
			n.byKey[key] = m
			n.byPort[port] = m
		}
		return translate, packet.Rewrite{SrcIP: &n.natIP, SrcPort: &m.NATPort, SrcMAC: &n.vmac}
	}
	if p.IP.Dst != n.natIP {
		return pass, packet.Rewrite{}
	}
	m, exists := n.byPort[ft.Dst.Port]
	if !exists {
		return drop, packet.Rewrite{} // unsolicited inbound to NAT address
	}
	return translate, packet.Rewrite{
		DstIP:   &m.Key.SrcIP,
		DstPort: &m.Key.SrcPort,
		DstMAC:  &m.HostMAC,
		SrcMAC:  &n.vmac,
	}
}

// NFStats implements nf.StatsReporter.
func (n *NAT) NFStats() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return map[string]uint64{
		"translated":   n.translated,
		"detranslated": n.detranslated,
		"arp_replies":  n.arpReplies,
		"mappings":     uint64(len(n.byKey)),
	}
}

// A NAT's state is the port cursor (u16), then the count and the mappings
// in key order: proto (u8), client IP, client port (u16), NAT port (u16),
// client MAC, dirty epoch (uvarint).

// ExportDelta implements nf.Stateful: mappings created after epoch
// `since` (all of them for since == 0), plus the port cursor. Mappings are
// never deleted, so an upsert-only delta is exact.
func (n *NAT) ExportDelta(since uint64) ([]byte, uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fresh := make([]*mapping, 0, len(n.byKey))
	for _, m := range n.byKey {
		if m.Seq > since {
			fresh = append(fresh, m)
		}
	}
	slices.SortFunc(fresh, func(a, b *mapping) int { return compareKeys(a.Key, b.Key) })
	w := make(nf.RecordWriter, 0, 8+mappingBytes*len(fresh))
	w.Uint16(n.nextPort)
	w.Uvarint(uint64(len(fresh)))
	for _, m := range fresh {
		w.Uint8(m.Key.Proto)
		w.IP(m.Key.SrcIP)
		w.Uint16(m.Key.SrcPort)
		w.Uint16(m.NATPort)
		w.MAC(m.HostMAC)
		w.Uvarint(m.Seq)
	}
	return w, n.seq, nil
}

// mappingBytes is a mapping's record with a two-byte epoch.
const mappingBytes = 1 + 4 + 2 + 2 + 6 + 2

// ImportDelta implements nf.Stateful. It decodes a blob and, only if all of
// it is sound, upserts its mappings into the live table and adopts its port
// cursor; the local dirty epoch advances past every imported stamp so a
// migrated-in table re-exports correctly on the next export. A blob is
// refused if its keys are out of order, if a port or the cursor lies
// outside this NAT's pool, or if a port would end up held by two keys.
func (n *NAT) ImportDelta(data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := nf.NewRecordReader(data)
	cursor := r.Uint16()
	ms := make([]mapping, r.Count())
	for i := range ms {
		m := &ms[i]
		m.Key = mapKey{Proto: r.Uint8(), SrcIP: r.IP(), SrcPort: r.Uint16()}
		m.NATPort = r.Uint16()
		m.HostMAC = r.MAC()
		m.Seq = r.Uvarint()
		if i > 0 && compareKeys(ms[i-1].Key, m.Key) >= 0 {
			return fmt.Errorf("%w: nat mappings out of key order", nf.ErrBadRecord)
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	if !n.inPool(cursor) {
		return fmt.Errorf("%w: nat port cursor %d outside %d-%d", nf.ErrBadRecord, cursor, n.lo, n.hi)
	}
	claimed := make(map[uint16]mapKey, len(ms))
	for i := range ms {
		m := &ms[i]
		if !n.inPool(m.NATPort) {
			return fmt.Errorf("%w: nat port %d outside %d-%d", nf.ErrBadRecord, m.NATPort, n.lo, n.hi)
		}
		if k, dup := claimed[m.NATPort]; dup {
			return fmt.Errorf("%w: nat port %d held by %v and %v", nf.ErrBadRecord, m.NATPort, k, m.Key)
		}
		claimed[m.NATPort] = m.Key
		// A live key keeps its port unless the blob moves that key too.
		if held, ok := n.byPort[m.NATPort]; ok && held.Key != m.Key {
			if _, moved := slices.BinarySearchFunc(ms, held.Key, func(x mapping, k mapKey) int { return compareKeys(x.Key, k) }); !moved {
				return fmt.Errorf("%w: nat port %d held by %v and %v", nf.ErrBadRecord, m.NATPort, held.Key, m.Key)
			}
		}
	}
	for i := range ms {
		m := &ms[i]
		n.seq = max(n.seq, m.Seq)
		if old, ok := n.byKey[m.Key]; ok && n.byPort[old.NATPort] == old {
			delete(n.byPort, old.NATPort)
		}
		n.byKey[m.Key] = m
		n.byPort[m.NATPort] = m
	}
	n.nextPort = cursor
	return nil
}

func (n *NAT) inPool(port uint16) bool { return port >= n.lo && port <= n.hi }

func compareKeys(a, b mapKey) int {
	return cmp.Or(cmp.Compare(a.Proto, b.Proto), cmp.Compare(a.SrcIP.Uint32(), b.SrcIP.Uint32()), cmp.Compare(a.SrcPort, b.SrcPort))
}

var _ nf.Stateful = (*NAT)(nil)

func init() {
	nf.Default.Register("nat", func(name string, params nf.Params) (nf.Function, error) {
		ip, ok := packet.ParseIP(params.Get("nat_ip", ""))
		if !ok {
			return nil, fmt.Errorf("nat: bad or missing nat_ip %q", params["nat_ip"])
		}
		var lo, hi uint16 = 40000, 50000
		if _, err := fmt.Sscanf(params.Get("ports", "40000-50000"), "%d-%d", &lo, &hi); err != nil {
			return nil, fmt.Errorf("nat: bad ports %q", params["ports"])
		}
		return New(name, ip, lo, hi)
	})
}
