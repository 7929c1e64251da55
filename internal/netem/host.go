package netem

import (
	"context"
	"sync"
	"sync/atomic"

	"gnf/internal/packet"
)

// Host is a minimal L3 endpoint behind a veth: it answers ARP for its own
// address, replies to ICMP echo, and dispatches UDP datagrams to registered
// handlers. Traffic generators and example services are built on it; it
// plays the role of the paper's wireless clients and upstream servers.
type Host struct {
	MACAddr packet.MAC
	IPAddr  packet.IP

	ep *Endpoint

	mu       sync.RWMutex
	arpTable map[packet.IP]packet.MAC
	// arpGen moves after every write to arpTable, so receive may skip Learn
	// for a pair it already learned while one atomic load says the table
	// stood still. It starts at 1: 0 is receive's "no memo".
	arpGen atomic.Uint64
	udp    map[uint16]UDPHandler
	anyUDP UDPHandler
	rawTap func(frame []byte)

	pingMu    sync.Mutex
	pingWaits map[uint32]chan struct{}
}

// UDPHandler receives a datagram payload plus its addressing. Returning a
// non-nil reply sends it back to the source.
//
// The payload aliases the received frame's buffer, which the host reclaims
// into the frame pool as soon as the handler returns — copy-on-retain: a
// handler that keeps the bytes past its return must copy them. Returning
// the payload (or a slice of it) as the reply is safe: the reply frame is
// assembled before the buffer is reclaimed.
type UDPHandler func(src packet.Endpoint, dst packet.Endpoint, payload []byte) (reply []byte)

// NewHost attaches a host to ep with the given addresses.
func NewHost(mac packet.MAC, ip packet.IP, ep *Endpoint) *Host {
	h := &Host{
		MACAddr:   mac,
		IPAddr:    ip,
		ep:        ep,
		arpTable:  make(map[packet.IP]packet.MAC),
		udp:       make(map[uint16]UDPHandler),
		pingWaits: make(map[uint32]chan struct{}),
	}
	h.arpGen.Store(1)
	ep.SetBatchReceiver(h.receive)
	return h
}

// Endpoint returns the host's attachment point.
func (h *Host) Endpoint() *Endpoint {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ep
}

// Rebind moves the host onto a new attachment point — the dataplane half
// of a roaming handoff (the client associates with a different cell). The
// caller is responsible for closing the previous endpoint.
func (h *Host) Rebind(ep *Endpoint) {
	h.mu.Lock()
	old := h.ep
	h.ep = ep
	h.mu.Unlock()
	if old != nil {
		old.SetBatchReceiver(nil)
	}
	ep.SetBatchReceiver(h.receive)
}

// HandleUDP registers a handler for a local UDP port. The table is replaced,
// never edited, so a batch in progress keeps the one it read.
func (h *Host) HandleUDP(port uint16, fn UDPHandler) {
	h.mu.Lock()
	next := map[uint16]UDPHandler{port: fn}
	for k, v := range h.udp {
		if k != port {
			next[k] = v
		}
	}
	h.udp = next
	h.mu.Unlock()
}

// HandleAnyUDP registers a catch-all UDP handler used when no per-port
// handler matches.
func (h *Host) HandleAnyUDP(fn UDPHandler) {
	h.mu.Lock()
	h.anyUDP = fn
	h.mu.Unlock()
}

// Tap installs a raw frame observer called for every received frame before
// protocol processing (nil to remove). Tests use it to assert on traffic.
func (h *Host) Tap(fn func(frame []byte)) {
	h.mu.Lock()
	h.rawTap = fn
	h.mu.Unlock()
}

// Learn records ip's MAC in the host's ARP table. An entry that is already
// right costs a read lock only; a write moves the table's generation.
func (h *Host) Learn(ip packet.IP, mac packet.MAC) {
	h.mu.RLock()
	cur, ok := h.arpTable[ip]
	h.mu.RUnlock()
	if ok && cur == mac {
		return
	}
	h.mu.Lock()
	h.arpTable[ip] = mac
	h.mu.Unlock()
	h.arpGen.Add(1)
}

// Resolve returns the MAC for ip from the ARP table, or broadcast when
// unknown (upper layers may also issue ARP requests with SendARPRequest).
func (h *Host) Resolve(ip packet.IP) packet.MAC {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if mac, ok := h.arpTable[ip]; ok {
		return mac
	}
	return packet.BroadcastMAC
}

// SendARPRequest broadcasts a who-has for ip.
func (h *Host) SendARPRequest(ip packet.IP) error {
	return h.Endpoint().Send(packet.BuildARP(packet.ARPRequest, h.MACAddr, h.IPAddr, packet.MAC{}, ip))
}

// SendUDP sends a datagram to dst; the destination MAC comes from the ARP
// table (broadcast if unknown, which the switch floods — fine for tests).
func (h *Host) SendUDP(dst packet.Endpoint, srcPort uint16, payload []byte) error {
	frame := packet.BuildUDP(h.MACAddr, h.Resolve(dst.Addr), h.IPAddr, dst.Addr, srcPort, dst.Port, payload)
	return h.Endpoint().Send(frame)
}

// Ping sends an ICMP echo request; the returned channel closes when the
// matching reply arrives. An unanswered echo's bookkeeping lives until a
// reply with the same id/seq shows up — callers expecting loss should use
// PingCtx with a deadline so the wait is reclaimed.
func (h *Host) Ping(dst packet.IP, id, seq uint16) (<-chan struct{}, error) {
	return h.PingCtx(context.Background(), dst, id, seq)
}

// PingCtx is Ping with a cancellation path: when ctx ends before the
// reply arrives, the pending-reply entry is reclaimed, so echoes lost on
// the wire cannot grow the wait table without bound. A reply racing the
// cancellation may still close the returned channel; once the entry is
// reclaimed it never will.
func (h *Host) PingCtx(ctx context.Context, dst packet.IP, id, seq uint16) (<-chan struct{}, error) {
	key := uint32(id)<<16 | uint32(seq)
	ch := make(chan struct{})
	h.pingMu.Lock()
	h.pingWaits[key] = ch
	h.pingMu.Unlock()
	frame := packet.BuildICMPEcho(h.MACAddr, h.Resolve(dst), h.IPAddr, dst, packet.ICMPEchoRequest, id, seq, []byte("gnf-ping"))
	if err := h.Endpoint().Send(frame); err != nil {
		h.unwait(key, ch)
		return nil, err
	}
	if done := ctx.Done(); done != nil {
		go func() {
			select {
			case <-ch:
			case <-done:
				h.unwait(key, ch)
			}
		}()
	}
	return ch, nil
}

// unwait removes a pending-ping entry, but only if it is still the one
// this caller registered — a later Ping reusing the same id/seq replaces
// the map entry, and cleaning up the old wait must not tear down the new
// one.
func (h *Host) unwait(key uint32, ch chan struct{}) {
	h.pingMu.Lock()
	if cur, ok := h.pingWaits[key]; ok && cur == ch {
		delete(h.pingWaits, key)
	}
	h.pingMu.Unlock()
}

// PendingPings reports the number of echoes awaiting replies (leak
// visibility for tests and operators).
func (h *Host) PendingPings() int {
	h.pingMu.Lock()
	defer h.pingMu.Unlock()
	return len(h.pingWaits)
}

// receive is the host's receive path. The tap and the handler table are
// read once and one parser serves the whole batch. A datagram's sender is
// learned once per batch for each (IP, MAC) pair: the pair last learned is
// kept with the ARP generation read before its Learn, and a datagram from
// the same pair skips Learn while the generation has not moved. Each
// frame's buffer is reclaimed into the pool once its processing (including
// any reply build) finishes; anything retaining frame bytes past that
// point must copy them.
func (h *Host) receive(frames [][]byte) {
	h.mu.RLock()
	tap, udp, anyUDP := h.rawTap, h.udp, h.anyUDP
	h.mu.RUnlock()
	p := packet.BorrowParser()
	defer packet.ReturnParser(p)
	var (
		learnedIP  packet.IP
		learnedMAC packet.MAC
		learnedGen uint64
	)
	for _, frame := range frames {
		if tap != nil {
			tap(frame)
		}
		// Frames that do not parse, or are addressed to neither us nor
		// everyone, are ignored.
		if p.Parse(frame) == nil && (p.Eth.Dst == h.MACAddr || p.Eth.Dst.IsBroadcast()) {
			switch {
			case p.Has(packet.LayerARP):
				h.handleARP(&p.ARP)
			case p.Has(packet.LayerICMP):
				h.handleICMP(p)
			// A first fragment is not the whole datagram; the host does not reassemble.
			case p.Has(packet.LayerUDP) && (p.IP.Dst == h.IPAddr || p.Eth.Dst.IsBroadcast()) &&
				int(p.UDP.Length) == packet.UDPHeaderLen+len(p.UDP.Payload()):
				if g := h.arpGen.Load(); g != learnedGen || p.IP.Src != learnedIP || p.Eth.Src != learnedMAC {
					h.Learn(p.IP.Src, p.Eth.Src)
					learnedIP, learnedMAC, learnedGen = p.IP.Src, p.Eth.Src, g
				}
				fn, ok := udp[p.UDP.DstPort]
				if !ok {
					fn = anyUDP
				}
				if fn != nil {
					h.handleUDP(p, fn)
				}
			}
		}
		packet.ReturnFrame(frame)
	}
}

func (h *Host) handleARP(a *packet.ARP) {
	h.Learn(a.SenderIP, a.SenderHW)
	if a.Op == packet.ARPRequest && a.TargetIP == h.IPAddr {
		h.Endpoint().Send(packet.BuildARP(packet.ARPReply, h.MACAddr, h.IPAddr, a.SenderHW, a.SenderIP))
	}
}

func (h *Host) handleICMP(p *packet.Parser) {
	ic := p.ICMP
	switch ic.Type {
	case packet.ICMPEchoRequest:
		if p.IP.Dst != h.IPAddr {
			return
		}
		h.Learn(p.IP.Src, p.Eth.Src)
		reply := packet.BuildICMPEcho(h.MACAddr, p.Eth.Src, h.IPAddr, p.IP.Src,
			packet.ICMPEchoReply, ic.ID, ic.Seq, ic.Payload())
		h.Endpoint().Send(reply)
	case packet.ICMPEchoReply:
		key := uint32(ic.ID)<<16 | uint32(ic.Seq)
		h.pingMu.Lock()
		if ch, ok := h.pingWaits[key]; ok {
			delete(h.pingWaits, key)
			close(ch)
		}
		h.pingMu.Unlock()
	}
}

func (h *Host) handleUDP(p *packet.Parser, fn UDPHandler) {
	src := packet.Endpoint{Addr: p.IP.Src, Port: p.UDP.SrcPort}
	dst := packet.Endpoint{Addr: p.IP.Dst, Port: p.UDP.DstPort}
	// The payload is handed to the handler aliasing the frame buffer —
	// no per-datagram clone. The copy-on-retain contract (see UDPHandler)
	// makes that safe: by the time the buffer is reclaimed in receive, the
	// handler has returned and any reply has been copied into a new frame.
	payload := p.UDP.Payload()
	if reply := fn(src, dst, payload); reply != nil {
		frame := packet.BuildUDP(h.MACAddr, h.Resolve(src.Addr), h.IPAddr, src.Addr, dst.Port, src.Port, reply)
		h.Endpoint().Send(frame)
	}
}
