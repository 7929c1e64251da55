package packet

import "sync"

// parserPool recycles Parsers for per-frame call sites that cannot keep a
// long-lived per-goroutine Parser (e.g. a switch pipeline entered from
// arbitrary delivery goroutines). A Parser self-references its scratch
// array through the layers slice, so a stack-declared one escapes to the
// heap — one allocation per frame, which at line rate turns into GC
// pressure that eats the extra cores.
var parserPool = sync.Pool{New: func() any { return new(Parser) }}

// BorrowParser fetches a pooled Parser; pair it with ReturnParser.
func BorrowParser() *Parser { return parserPool.Get().(*Parser) }

// ReturnParser recycles p. The caller must not touch p (or slices
// obtained from it — they alias the parsed frame) afterwards.
func ReturnParser(p *Parser) { parserPool.Put(p) }

// Parser decodes a frame into preallocated layer structs, the stdlib
// analogue of gopacket's DecodingLayerParser: one Parser per goroutine,
// reused across frames, zero allocations on the hot path.
//
//	var p packet.Parser
//	for frame := range frames {
//	    if err := p.Parse(frame); err != nil { continue }
//	    if p.Has(packet.LayerUDP) { use(p.UDP.DstPort) }
//	}
type Parser struct {
	Eth  Ethernet
	ARP  ARP
	IP   IPv4
	UDP  UDP
	TCP  TCP
	ICMP ICMP

	decoded [8]bool
	layers  []LayerType
	scratch [8]LayerType
}

// Parse decodes frame starting at Ethernet. It decodes as deep as it can
// and returns the first hard error; partially decoded layers remain
// queryable via Has.
func (p *Parser) Parse(frame []byte) error {
	for i := range p.decoded {
		p.decoded[i] = false
	}
	p.layers = p.scratch[:0]
	if err := p.Eth.Decode(frame); err != nil {
		return err
	}
	p.mark(LayerEthernet)
	switch p.Eth.EtherType {
	case EtherTypeARP:
		if err := p.ARP.Decode(p.Eth.Payload()); err != nil {
			return err
		}
		p.mark(LayerARP)
		return nil
	case EtherTypeIPv4:
		if err := p.IP.Decode(p.Eth.Payload()); err != nil {
			return err
		}
		p.mark(LayerIPv4)
	default:
		p.mark(LayerPayload)
		return nil
	}
	// Only the first fragment of a datagram carries its transport header; the
	// others are payload bytes whatever Proto says, so their ports stay zero.
	if p.IP.FragOffset != 0 {
		p.mark(LayerPayload)
		return nil
	}
	switch p.IP.Proto {
	case ProtoUDP:
		if err := p.UDP.decode(p.IP.Payload(), p.IP.Flags&ipMoreFragments != 0); err != nil {
			return err
		}
		p.mark(LayerUDP)
	case ProtoTCP:
		if err := p.TCP.Decode(p.IP.Payload()); err != nil {
			return err
		}
		p.mark(LayerTCP)
	case ProtoICMP:
		if err := p.ICMP.Decode(p.IP.Payload()); err != nil {
			return err
		}
		p.mark(LayerICMP)
	default:
		p.mark(LayerPayload)
	}
	return nil
}

func (p *Parser) mark(t LayerType) {
	p.decoded[t] = true
	p.layers = append(p.layers, t)
}

// Has reports whether layer t was decoded by the last Parse.
func (p *Parser) Has(t LayerType) bool { return p.decoded[t] }

// Layers returns the layer types decoded by the last Parse, outermost
// first. The slice is valid until the next Parse.
func (p *Parser) Layers() []LayerType { return p.layers }

// FiveTuple returns the transport flow of the last parsed frame; ok is
// false for non-TCP/UDP frames. ICMP frames report ports of zero with
// ok=true so ping flows remain trackable.
func (p *Parser) FiveTuple() (FiveTuple, bool) {
	src, dst, ok := p.Ports()
	if !ok || !p.Has(LayerIPv4) {
		return FiveTuple{}, false
	}
	return FiveTuple{Proto: p.IP.Proto, Src: Endpoint{p.IP.Src, src}, Dst: Endpoint{p.IP.Dst, dst}}, true
}

// Ports returns the ports FiveTuple reports, without building the tuple: a
// 14-byte struct written field by field and then copied whole costs a
// caller that wants only a few of its words more than the fields do.
func (p *Parser) Ports() (src, dst uint16, ok bool) {
	switch {
	case p.Has(LayerUDP):
		return p.UDP.SrcPort, p.UDP.DstPort, true
	case p.Has(LayerTCP):
		return p.TCP.SrcPort, p.TCP.DstPort, true
	case p.Has(LayerICMP):
		return 0, 0, true
	}
	return 0, 0, false
}

// TransportPayload returns the application bytes of the last parsed frame
// (UDP datagram body or TCP segment body), or nil.
func (p *Parser) TransportPayload() []byte {
	switch {
	case p.Has(LayerUDP):
		return p.UDP.Payload()
	case p.Has(LayerTCP):
		return p.TCP.Payload()
	}
	return nil
}
