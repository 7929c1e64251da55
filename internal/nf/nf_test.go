package nf

import (
	"errors"
	"testing"
	"time"

	"gnf/internal/clock"
	"gnf/internal/netem"
)

// tagger appends its tag to every frame, recording the direction order.
type tagger struct {
	name string
	tag  byte
	seen []Direction
}

func (t *tagger) Name() string                               { return t.name }
func (t *tagger) Kind() string                               { return "tagger" }
func (t *tagger) Process(dir Direction, frame []byte) Output { return ProcessOne(t, dir, frame) }
func (t *tagger) ProcessBatch(dir Direction, frames [][]byte, out *Output) {
	for _, f := range frames {
		t.seen = append(t.seen, dir)
		out.Forward = append(out.Forward, append(f, t.tag))
	}
}

// dropper drops everything.
type dropper struct{ name string }

func (d *dropper) Name() string                               { return d.name }
func (d *dropper) Kind() string                               { return "dropper" }
func (d *dropper) Process(dir Direction, frame []byte) Output { return ProcessOne(d, dir, frame) }
func (d *dropper) ProcessBatch(Direction, [][]byte, *Output)  {}

// bouncer replies to outbound frames with a reversed copy.
type bouncer struct{ name string }

func (b *bouncer) Name() string                               { return b.name }
func (b *bouncer) Kind() string                               { return "bouncer" }
func (b *bouncer) Process(dir Direction, frame []byte) Output { return ProcessOne(b, dir, frame) }
func (b *bouncer) ProcessBatch(dir Direction, frames [][]byte, out *Output) {
	for _, f := range frames {
		if dir == Outbound {
			out.Reverse = append(out.Reverse, append(f, 'R'))
		} else {
			out.Forward = append(out.Forward, f)
		}
	}
}

// stateful stores a blob.
type statefulFn struct {
	tagger
	blob []byte
}

func (s *statefulFn) ExportDelta(uint64) ([]byte, uint64, error) { return s.blob, 0, nil }
func (s *statefulFn) ImportDelta(b []byte) error                 { s.blob = append([]byte(nil), b...); return nil }
func (s *statefulFn) NFStats() map[string]uint64 {
	return map[string]uint64{"seen": uint64(len(s.seen))}
}
func (s *statefulFn) SetClock(clock.Clock)   {}
func (s *statefulFn) SetNotifier(NotifyFunc) {}

func TestChainOutboundOrder(t *testing.T) {
	a := &tagger{name: "a", tag: 'a'}
	b := &tagger{name: "b", tag: 'b'}
	c := NewChain("ch", a, b)
	out := c.Process(Outbound, []byte("x"))
	if len(out.Forward) != 1 || string(out.Forward[0]) != "xab" {
		t.Fatalf("forward = %q", out.Forward)
	}
	if len(out.Reverse) != 0 {
		t.Fatal("unexpected reverse frames")
	}
}

func TestChainInboundReversesOrder(t *testing.T) {
	a := &tagger{name: "a", tag: 'a'}
	b := &tagger{name: "b", tag: 'b'}
	c := NewChain("ch", a, b)
	out := c.Process(Inbound, []byte("x"))
	if len(out.Forward) != 1 || string(out.Forward[0]) != "xba" {
		t.Fatalf("forward = %q", out.Forward)
	}
}

func TestChainDropStopsTraversal(t *testing.T) {
	a := &tagger{name: "a", tag: 'a'}
	c := NewChain("ch", &dropper{name: "d"}, a)
	out := c.Process(Outbound, []byte("x"))
	if len(out.Forward) != 0 || len(out.Reverse) != 0 {
		t.Fatalf("drop leaked: %+v", out)
	}
	if len(a.seen) != 0 {
		t.Fatal("function after dropper still ran")
	}
}

func TestChainReverseTraversesEarlierMembers(t *testing.T) {
	// a -> bouncer: outbound frame bounced by member 1 must re-traverse
	// member 0 inbound and exit the ingress side.
	a := &tagger{name: "a", tag: 'a'}
	c := NewChain("ch", a, &bouncer{name: "b"})
	out := c.Process(Outbound, []byte("x"))
	if len(out.Forward) != 0 {
		t.Fatalf("bounced frame still forwarded: %q", out.Forward)
	}
	if len(out.Reverse) != 1 || string(out.Reverse[0]) != "xaRa" {
		t.Fatalf("reverse = %q", out.Reverse)
	}
	if len(a.seen) != 2 || a.seen[0] != Outbound || a.seen[1] != Inbound {
		t.Fatalf("a saw %v", a.seen)
	}
}

func TestChainReplyFromInboundGoesBackOut(t *testing.T) {
	// Inbound frame hitting a bouncer at position 0... bouncer replies only
	// to Outbound, so craft chain with bouncer last and send Inbound: the
	// frame passes it (Forward), then tagger, exits ingress side.
	a := &tagger{name: "a", tag: 'a'}
	c := NewChain("ch", a, &bouncer{name: "b"})
	out := c.Process(Inbound, []byte("y"))
	if len(out.Forward) != 1 || string(out.Forward[0]) != "ya" {
		t.Fatalf("forward = %q", out.Forward)
	}
}

func TestEmptyChainForwards(t *testing.T) {
	c := NewChain("empty")
	out := c.Process(Outbound, []byte("z"))
	if len(out.Forward) != 1 || string(out.Forward[0]) != "z" {
		t.Fatalf("out = %+v", out)
	}
	if c.Len() != 0 || c.Kind() != "chain" || c.Name() != "empty" {
		t.Fatal("metadata wrong")
	}
}

func TestChainStateRoundTrip(t *testing.T) {
	s1 := &statefulFn{tagger: tagger{name: "s1", tag: '1'}, blob: []byte("alpha")}
	plain := &tagger{name: "p", tag: 'p'}
	s2 := &statefulFn{tagger: tagger{name: "s2", tag: '2'}, blob: []byte("beta")}
	src := NewChain("src", s1, plain, s2)
	data, err := src.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	d1 := &statefulFn{tagger: tagger{name: "s1", tag: '1'}}
	d2 := &statefulFn{tagger: tagger{name: "s2", tag: '2'}}
	dst := NewChain("dst", d1, &tagger{name: "p", tag: 'p'}, d2)
	if err := dst.ImportState(data); err != nil {
		t.Fatalf("import: %v", err)
	}
	if string(d1.blob) != "alpha" || string(d2.blob) != "beta" {
		t.Fatalf("blobs = %q %q", d1.blob, d2.blob)
	}
}

func TestChainStateShapeMismatch(t *testing.T) {
	src := NewChain("src", &statefulFn{tagger: tagger{name: "s"}})
	data, _ := src.ExportState()
	dst := NewChain("dst") // zero members
	if err := dst.ImportState(data); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("err = %v", err)
	}
	if err := dst.ImportState([]byte{1}); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("short: %v", err)
	}
	// State for a stateless member must be empty.
	srcStateful := NewChain("s", &statefulFn{tagger: tagger{name: "x"}, blob: []byte("b")})
	data2, _ := srcStateful.ExportState()
	dstStateless := NewChain("d", &tagger{name: "x"})
	if err := dstStateless.ImportState(data2); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("stateless import: %v", err)
	}
}

func TestChainFanout(t *testing.T) {
	s := &statefulFn{tagger: tagger{name: "s", tag: 's'}}
	ch := NewChain("c", s)
	ch.SetClock(clock.NewVirtual())
	ch.SetNotifier(func(Notification) {})
	stats := ch.NFStats()
	if _, ok := stats["s.seen"]; !ok {
		t.Fatalf("stats = %v", stats)
	}
	if got := ch.Functions(); len(got) != 1 || got[0].Name() != "s" {
		t.Fatalf("Functions = %v", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("tagger", func(name string, p Params) (Function, error) {
		return &tagger{name: name, tag: p.Get("tag", "t")[0]}, nil
	})
	if kinds := r.Kinds(); len(kinds) != 1 || kinds[0] != "tagger" {
		t.Fatalf("kinds = %v", kinds)
	}
	fn, err := r.New("tagger", "t1", Params{"tag": "z"})
	if err != nil || fn.Name() != "t1" {
		t.Fatalf("New: %v %v", fn, err)
	}
	if _, err := r.New("nope", "x", nil); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: %v", err)
	}
	if Params(nil).Get("missing", "def") != "def" {
		t.Fatal("Params.Get default broken")
	}
}

func TestDefaultRegistryHasBuiltins(t *testing.T) {
	// The built-in packages self-register; this package does not import
	// them (no cycle), so only check the registry exists and is usable.
	if Default == nil {
		t.Fatal("Default registry nil")
	}
}

func TestDirectionHelpers(t *testing.T) {
	if Outbound.String() != "out" || Inbound.String() != "in" {
		t.Fatal("direction strings")
	}
	if Outbound.Opposite() != Inbound || Inbound.Opposite() != Outbound {
		t.Fatal("Opposite broken")
	}
}

func TestChainHostForwardsBothDirections(t *testing.T) {
	// client side <-> [host] <-> network side
	inA, inB := netem.NewVethPair("ci", "hi") // inA: switch side, inB: host ingress
	outA, outB := netem.NewVethPair("co", "ho")
	defer inA.Close()
	defer outA.Close()
	tag := &tagger{name: "t", tag: 'T'}
	h := NewChainHost(NewChain("c", tag), inB, outB)

	fromEgress := make(chan []byte, 4)
	fromIngress := make(chan []byte, 4)
	outA.SetReceiver(func(f []byte) { fromEgress <- f })
	inA.SetReceiver(func(f []byte) { fromIngress <- f })

	// Disabled: frames dropped.
	inA.Send([]byte("x"))
	time.Sleep(20 * time.Millisecond)
	if h.Dropped() == 0 {
		t.Fatal("disabled host forwarded")
	}
	h.Enable()
	if !h.Enabled() {
		t.Fatal("Enabled() false")
	}
	inA.Send([]byte("x"))
	select {
	case f := <-fromEgress:
		if string(f) != "xT" {
			t.Fatalf("egress frame = %q", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no egress frame")
	}
	outA.Send([]byte("y"))
	select {
	case f := <-fromIngress:
		if string(f) != "yT" {
			t.Fatalf("ingress frame = %q", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no ingress frame")
	}
	if h.Processed() != 2 {
		t.Fatalf("processed = %d", h.Processed())
	}
	if h.Function().Name() != "c" {
		t.Fatal("Function accessor")
	}
	h.Disable()
	if h.Enabled() {
		t.Fatal("Disable did not stick")
	}
}

func TestChainHostReplyGoesBack(t *testing.T) {
	inA, inB := netem.NewVethPair("ci", "hi")
	outA, outB := netem.NewVethPair("co", "ho")
	defer inA.Close()
	defer outA.Close()
	h := NewChainHost(&bouncer{name: "b"}, inB, outB)
	h.Enable()
	back := make(chan []byte, 1)
	inA.SetReceiver(func(f []byte) { back <- f })
	leaked := make(chan []byte, 1)
	outA.SetReceiver(func(f []byte) { leaked <- f })
	inA.Send([]byte("q"))
	select {
	case f := <-back:
		if string(f) != "qR" {
			t.Fatalf("reply = %q", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply")
	}
	select {
	case f := <-leaked:
		t.Fatalf("reply leaked to egress: %q", f)
	case <-time.After(50 * time.Millisecond):
	}
}
