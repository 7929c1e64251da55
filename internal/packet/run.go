package packet

import "bytes"

// RunPrefixLen is the window a same-flow run is detected over: Ethernet
// (14) + IPv4 header with IHL=5 (20) + transport ports (4) + UDP length
// (2). Every field a steering Match, a FlowKey or a FiveTuple can inspect —
// and every field the Ethernet/IPv4/UDP decoders validate, except the
// frame-length bound checked per frame — lives inside it, so two frames
// with equal prefixes parse identically and are indistinguishable to
// anything that decides per flow.
const RunPrefixLen = 40

// Run detects runs: consecutive frames of one flow, told apart by raw
// header-prefix equality without parsing. The switch and the NFs decide
// once per run and reuse the decision for the frames that continue it.
// The zero Run describes no run.
//
//	var run packet.Run
//	for _, frame := range frames {
//	    if !run.Continues(frame) {
//	        decision = decide(frame) // parse, look up; skip Start if the parse fails
//	        run.Start(frame)
//	    }
//	    apply(decision, frame)
//	}
//
// The prefix is copied, not referenced: the frame usually changes hands (or
// is rewritten in place) before the next one is compared, and a recycled
// buffer must not be able to corrupt run detection.
type Run struct {
	valid bool
	hdr   [RunPrefixLen]byte
}

// Continues reports whether frame belongs to the run r describes. A frame
// that does not ends the run: r describes none until the next Start.
func (r *Run) Continues(frame []byte) bool {
	r.valid = r.valid && sameFlowPrefix(r.hdr[:], frame)
	return r.valid
}

// Start makes frame, which the caller has parsed clean, the reference of a
// new run if it qualifies, and reports whether it did; if not, r describes
// no run.
func (r *Run) Start(frame []byte) bool {
	if r.valid = runnable(frame); r.valid {
		copy(r.hdr[:], frame)
	}
	return r.valid
}

// Reset makes r describe no run.
func (r *Run) Reset() { r.valid = false }

// runnable reports whether a frame qualifies as a run reference: untagged
// IPv4 with no options and a UDP payload. Anything else (VLAN tags, IP
// options, TCP whose sequence numbers sit inside the window) is decided
// frame by frame.
func runnable(frame []byte) bool {
	return len(frame) >= RunPrefixLen &&
		frame[12] == 0x08 && frame[13] == 0x00 && // EtherType IPv4
		frame[14] == 0x45 && // version 4, IHL 5
		frame[23] == ProtoUDP
}

// sameFlowPrefix reports whether frame continues the run described by hdr
// (the copied prefix of an earlier runnable frame). The TotalLength bound
// is re-checked against this frame's own length; every other decoder
// invariant is implied by prefix equality with a frame that parsed clean.
func sameFlowPrefix(hdr, frame []byte) bool {
	if len(frame) < RunPrefixLen {
		return false
	}
	if int(frame[16])<<8|int(frame[17])+EthernetHeaderLen > len(frame) {
		return false
	}
	return bytes.Equal(hdr[:RunPrefixLen], frame[:RunPrefixLen])
}
