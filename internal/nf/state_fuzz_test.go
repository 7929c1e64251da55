package nf_test

import (
	"bytes"
	"testing"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

// fuzzChain is one member of each state mode the chain framing carries:
// full-only (firewall), none (httpfilter) and delta (nat, counter).
func fuzzChain(tb testing.TB) *nf.Chain {
	tb.Helper()
	specs := []struct {
		kind   string
		params nf.Params
	}{
		{"firewall", nf.Params{"rules": "drop out udp any any any 9; accept in udp"}},
		{"httpfilter", nil},
		{"nat", nf.Params{"nat_ip": "198.51.100.1", "ports": "20000-20015"}},
		{"counter", nil},
	}
	fns := make([]nf.Function, len(specs))
	for i, s := range specs {
		fn, err := nf.Default.New(s.kind, s.kind, s.params)
		if err != nil {
			tb.Fatal(err)
		}
		fns[i] = fn
	}
	return nf.NewChain("fuzz", fns...)
}

// FuzzImportChainState feeds a chain arbitrary blobs, the first byte
// picking the framing: a full state (ImportState) or a delta
// (ImportStateDelta). The decoder never panics, and whatever it accepts
// exports bytes that import to the same bytes under both framings.
func FuzzImportChainState(f *testing.F) {
	src := fuzzChain(f)
	send := func(from, to uint16) {
		for p := from; p < to; p++ {
			src.Process(nf.Outbound, packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
				packet.IP{10, 0, 0, 1}, packet.IP{93, 184, 216, 34}, p, 53, nil))
		}
	}
	send(1000, 1010)
	full, err := src.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	first, epochs, err := src.ExportStateDelta(nil)
	if err != nil {
		f.Fatal(err)
	}
	send(1005, 1020)
	second, _, err := src.ExportStateDelta(epochs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{0}, full...))
	f.Add(append([]byte{1}, first...))
	f.Add(append([]byte{1}, second...))
	f.Add(append([]byte{1}, second[:len(second)-3]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := fuzzChain(t)
		var err error
		if data[0]&1 == 0 {
			err = c.ImportState(data[1:])
		} else {
			err = c.ImportStateDelta(data[1:])
		}
		if err != nil {
			return
		}
		want, err := c.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		again := fuzzChain(t)
		if err := again.ImportState(want); err != nil {
			t.Fatalf("re-importing its own export: %v", err)
		}
		delta, _, err := c.ExportStateDelta(nil)
		if err != nil {
			t.Fatal(err)
		}
		viaDelta := fuzzChain(t)
		if err := viaDelta.ImportStateDelta(delta); err != nil {
			t.Fatalf("re-importing its own delta: %v", err)
		}
		for _, got := range []*nf.Chain{again, viaDelta} {
			if b, err := got.ExportState(); err != nil || !bytes.Equal(b, want) {
				t.Fatalf("export → import → export changed the bytes (%v)\nfirst  %x\nsecond %x", err, want, b)
			}
		}
	})
}
