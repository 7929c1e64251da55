package nf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Stateful is implemented by functions whose state moves with a migration.
// The contract:
//
//   - Every mutation stamps the touched entries with a monotonically
//     increasing epoch.
//   - ExportDelta(since) returns the entries stamped after `since` plus the
//     epoch to pass on the next call; since == 0 exports everything. A kind
//     that keeps no epochs answers every `since` with everything.
//   - ImportDelta merges a blob into the current state (upserts); on a fresh
//     instance that is the blob's state. Blobs carry no tombstones: entry
//     deletion converges through the functions' own expiry (caches) or
//     simply never occurs (nat, counter), so merging is exact for every
//     built-in kind.
type Stateful interface {
	ExportDelta(since uint64) (delta []byte, epoch uint64, err error)
	ImportDelta(delta []byte) error
}

// ErrStateMismatch is returned when imported chain state does not line up
// with the chain's members.
var ErrStateMismatch = errors.New("nf: chain state does not match chain shape")

// Chain state is serialized as a member count (u32), then one length-prefixed
// (u32) blob per member in outbound chain order: what the member exported
// since its epoch, empty for a stateless member, so positional matching
// survives round-trips and a blob only ever applies to the chain shape it
// was exported from.

func exportChainState(fns []Function, since []uint64) ([]byte, []uint64, error) {
	if since == nil {
		since = make([]uint64, len(fns))
	}
	if len(since) != len(fns) {
		return nil, nil, fmt.Errorf("%w: %d epochs for %d members", ErrStateMismatch, len(since), len(fns))
	}
	epochs := make([]uint64, len(fns))
	var out []byte
	out = binary.BigEndian.AppendUint32(out, uint32(len(fns)))
	for i, f := range fns {
		var blob []byte
		if s, ok := f.(Stateful); ok {
			b, ep, err := s.ExportDelta(since[i])
			if err != nil {
				return nil, nil, fmt.Errorf("nf: exporting %s: %w", f.Name(), err)
			}
			blob, epochs[i] = b, ep
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out, epochs, nil
}

func importChainState(fns []Function, data []byte) error {
	if len(data) < 4 {
		return ErrStateMismatch
	}
	if n := binary.BigEndian.Uint32(data); int(n) != len(fns) {
		return fmt.Errorf("%w: state has %d members, chain has %d", ErrStateMismatch, n, len(fns))
	}
	off := 4
	for _, f := range fns {
		if off+4 > len(data) {
			return ErrStateMismatch
		}
		l := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if off+l > len(data) {
			return ErrStateMismatch
		}
		blob := data[off : off+l]
		off += l
		s, ok := f.(Stateful)
		if !ok {
			if l != 0 {
				return fmt.Errorf("%w: state for stateless member %s", ErrStateMismatch, f.Name())
			}
			continue
		}
		if err := s.ImportDelta(blob); err != nil {
			return fmt.Errorf("nf: importing %s: %w", f.Name(), err)
		}
	}
	if off != len(data) {
		return ErrStateMismatch
	}
	return nil
}
