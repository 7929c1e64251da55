package nf_test

import (
	"bytes"
	"testing"

	"gnf/internal/nf"
	"gnf/internal/packet"
)

// fuzzChain is one member of each kind of state the chain framing carries:
// without epochs (firewall), none (httpfilter) and with epochs (nat,
// counter).
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

// FuzzImportChainState feeds arbitrary blobs to a fresh chain and, merged,
// to one holding a seed's state. The decoder never panics, and whatever
// either accepts exports bytes that import to the same bytes.
func FuzzImportChainState(f *testing.F) {
	src := fuzzChain(f)
	send := func(from, to uint16) {
		for p := from; p < to; p++ {
			src.Process(nf.Outbound, packet.BuildUDP(packet.MAC{2, 0, 0, 0, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 2},
				packet.IP{10, 0, 0, 1}, packet.IP{93, 184, 216, 34}, p, 53, nil))
		}
	}
	send(1000, 1010)
	full, epochs, err := src.ExportStateDelta(nil)
	if err != nil {
		f.Fatal(err)
	}
	send(1005, 1020)
	delta, _, err := src.ExportStateDelta(epochs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(delta)
	f.Add(delta[:len(delta)-3])
	f.Add(full[:len(full)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		held := fuzzChain(t)
		if err := held.ImportState(full); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*nf.Chain{fuzzChain(t), held} {
			if err := c.ImportState(data); err != nil {
				continue
			}
			want, err := c.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			again := fuzzChain(t)
			if err := again.ImportState(want); err != nil {
				t.Fatalf("re-importing its own export: %v", err)
			}
			if b, err := again.ExportState(); err != nil || !bytes.Equal(b, want) {
				t.Fatalf("export → import → export changed the bytes (%v)\nfirst  %x\nsecond %x", err, want, b)
			}
		}
	})
}
