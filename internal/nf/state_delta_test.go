package nf

import (
	"encoding/json"
	"errors"
	"testing"
)

// kvStore is a toy DeltaStateful function: a map with per-key dirty
// epochs, the same shape the real stateful kinds implement.
type kvStore struct {
	name string
	seq  uint64
	vals map[string]string
	dirt map[string]uint64
}

func newKV(name string) *kvStore {
	return &kvStore{name: name, vals: map[string]string{}, dirt: map[string]uint64{}}
}

func (k *kvStore) Name() string                           { return k.name }
func (k *kvStore) Kind() string                           { return "kv" }
func (k *kvStore) Process(dir Direction, f []byte) Output { return ProcessOne(k, dir, f) }
func (k *kvStore) ProcessBatch(_ Direction, fs [][]byte, out *Output) {
	out.Forward = append(out.Forward, fs...)
}
func (k *kvStore) set(key, val string)          { k.seq++; k.vals[key] = val; k.dirt[key] = k.seq }
func (k *kvStore) ExportState() ([]byte, error) { return json.Marshal(k.vals) }
func (k *kvStore) ImportState(b []byte) error   { return json.Unmarshal(b, &k.vals) }
func (k *kvStore) ExportDelta(since uint64) ([]byte, uint64, error) {
	out := map[string]string{}
	for key, ep := range k.dirt {
		if ep > since {
			out[key] = k.vals[key]
		}
	}
	b, err := json.Marshal(out)
	return b, k.seq, err
}
func (k *kvStore) ImportDelta(b []byte) error {
	var in map[string]string
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	for key, val := range in {
		k.vals[key] = val
	}
	return nil
}

// fullOnly is Stateful without delta support: it must re-ship its full
// state every round.
type fullOnly struct {
	name string
	val  string
}

func (f *fullOnly) Name() string                            { return f.name }
func (f *fullOnly) Kind() string                            { return "full" }
func (f *fullOnly) Process(dir Direction, fr []byte) Output { return ProcessOne(f, dir, fr) }
func (f *fullOnly) ProcessBatch(_ Direction, fs [][]byte, out *Output) {
	out.Forward = append(out.Forward, fs...)
}
func (f *fullOnly) ExportState() ([]byte, error) { return []byte(f.val), nil }
func (f *fullOnly) ImportState(b []byte) error   { f.val = string(b); return nil }

func TestChainDeltaRoundTrip(t *testing.T) {
	srcKV := newKV("kv")
	srcFull := &fullOnly{name: "full", val: "v1"}
	src := NewChain("c", srcKV, &tagger{name: "t"}, srcFull)

	dstKV := newKV("kv")
	dstFull := &fullOnly{name: "full"}
	dst := NewChain("c", dstKV, &tagger{name: "t"}, dstFull)

	srcKV.set("a", "1")
	srcKV.set("b", "2")

	// Round 1: nil epochs = full export.
	blob, epochs, err := src.ExportStateDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("epochs = %v", epochs)
	}
	if err := dst.ImportStateDelta(blob); err != nil {
		t.Fatal(err)
	}
	if dstKV.vals["a"] != "1" || dstKV.vals["b"] != "2" || dstFull.val != "v1" {
		t.Fatalf("after full round: kv=%v full=%q", dstKV.vals, dstFull.val)
	}

	// Round 2: only the mutation since round 1 ships for the delta member;
	// the full-only member re-ships everything.
	srcKV.set("c", "3")
	srcFull.val = "v2"
	blob2, epochs2, err := src.ExportStateDelta(epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob2) >= len(blob) {
		t.Fatalf("delta (%dB) not smaller than full (%dB)", len(blob2), len(blob))
	}
	if err := dst.ImportStateDelta(blob2); err != nil {
		t.Fatal(err)
	}
	if dstKV.vals["c"] != "3" || dstFull.val != "v2" {
		t.Fatalf("after delta round: kv=%v full=%q", dstKV.vals, dstFull.val)
	}

	// Round 3: nothing changed — the delta member contributes an empty
	// delta; epochs are stable.
	blob3, epochs3, err := src.ExportStateDelta(epochs2)
	if err != nil {
		t.Fatal(err)
	}
	if epochs3[0] != epochs2[0] {
		t.Fatalf("idle epochs moved: %v -> %v", epochs2, epochs3)
	}
	if err := dst.ImportStateDelta(blob3); err != nil {
		t.Fatal(err)
	}
	if len(dstKV.vals) != 3 {
		t.Fatalf("idle round changed state: %v", dstKV.vals)
	}
}

func TestChainDeltaShapeMismatch(t *testing.T) {
	src := NewChain("c", newKV("kv"))
	dst := NewChain("c", newKV("kv"), &tagger{name: "t"})
	blob, _, err := src.ExportStateDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportStateDelta(blob); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("mismatched import = %v, want ErrStateMismatch", err)
	}
	if _, _, err := src.ExportStateDelta([]uint64{1, 2}); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("bad epoch vector = %v, want ErrStateMismatch", err)
	}
}

func TestChainDeltaStatelessMembers(t *testing.T) {
	src := NewChain("c", &tagger{name: "t1"}, &tagger{name: "t2"})
	dst := NewChain("c", &tagger{name: "t1"}, &tagger{name: "t2"})
	blob, epochs, err := src.ExportStateDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if epochs[0] != 0 || epochs[1] != 0 {
		t.Fatalf("stateless epochs = %v", epochs)
	}
	if err := dst.ImportStateDelta(blob); err != nil {
		t.Fatal(err)
	}
}
