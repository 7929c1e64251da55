package trace

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gnf/internal/clock"
)

func TestHeaderRoundTrip(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk, WithOrigin("manager"), WithStore(8))
	root := tr.StartSpan(Context{}, "root")
	h := root.Context().Header()
	if h == "" {
		t.Fatal("sampled root produced empty header")
	}
	ctx, ok := ParseHeader(h)
	if !ok {
		t.Fatalf("ParseHeader(%q) rejected its own encoding", h)
	}
	if ctx.TraceID != root.Context().TraceID || ctx.SpanID != root.Context().SpanID {
		t.Fatalf("round-trip mismatch: %+v vs %+v", ctx, root.Context())
	}
	if !ctx.Sampled {
		t.Fatal("parsed context lost the sampled flag")
	}
}

// TestFormatIDMatchesPrintf holds formatID to the Printf format it replaced,
// so every trace and span ID keeps its bytes: the tag's four digits, then the
// counter's low 48 bits whatever lies above them.
func TestFormatIDMatchesPrintf(t *testing.T) {
	for _, tag := range []uint16{0, 1, 0xffff} {
		for _, n := range []uint64{0, 1, 0xabc, 1<<48 - 1, 1 << 48, 1<<48 + 0x2a, 0xdead_beef_cafe_f00d, ^uint64(0)} {
			want := fmt.Sprintf("%04x%012x", tag, n&0xffffffffffff)
			if got := formatID(tag, n); got != want {
				t.Errorf("formatID(%#x, %#x) = %q, want %q", tag, n, got, want)
			}
		}
	}
}

func TestParseHeaderDegradesOnGarbage(t *testing.T) {
	for _, h := range []string{
		"", "garbage", "a-b-c", "xyz-123-1", "--1",
		"0123456789abcdef-00ab12cd-0",       // unsampled flag form not emitted
		"0123456789ABCDEF-000000000001-1",   // upper-case hex is foreign
		"0123456-0000000000000001-1",        // trace ID too short
		"0123456789abcdef0123456789abcdef0", // no separators
	} {
		if ctx, ok := ParseHeader(h); ok || ctx.Valid() {
			t.Errorf("ParseHeader(%q) = %+v, %v; want rejection", h, ctx, ok)
		}
	}
}

// FuzzParseHeader feeds the decoder every agent RPC handler runs on a
// wire-supplied string: it never panics, a header it accepts re-serialises
// byte-identically through Context.Header, and anything else is the zero
// Context.
func FuzzParseHeader(f *testing.F) {
	tr := New(clock.NewVirtual(), WithOrigin("manager"), WithStore(8))
	f.Add(tr.StartSpan(Context{}, "root").Context().Header())
	for _, h := range []string{
		"", "garbage", "a-b-c", "--1", "aaaaaaaabbbb-ccccccccdddd-1",
		"0123456789abcdef-00ab12cd-0", "0123456789ABCDEF-000000000001-1",
		"0123456789abcdef0123456789abcdef-0123456789abcdef0123456789abcdef-1",
		"0123456789abcdef0123456789abcdef0-0123456789abcdef-1",
		"0123456789abcdef-0123456789abcdef-1-1",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		ctx, ok := ParseHeader(h)
		if !ok {
			if ctx != (Context{}) {
				t.Fatalf("ParseHeader(%q) rejected the header but returned %+v", h, ctx)
			}
			return
		}
		if got := ctx.Header(); got != h {
			t.Fatalf("ParseHeader(%q) = %+v, which re-serialises as %q", h, ctx, got)
		}
	})
}

func TestStartSpanWithInvalidParentStartsFreshRoot(t *testing.T) {
	tr := New(clock.NewVirtual(), WithOrigin("st-1"), WithStore(8))
	ctx, ok := ParseHeader("not a header at all")
	if ok {
		t.Fatal("garbage header parsed")
	}
	sp := tr.StartSpan(ctx, "op")
	if sp.Context().TraceID == "" || sp.rec.Parent != "" {
		t.Fatalf("degraded span is not a fresh root: %+v", sp.rec)
	}
	sp.End(nil)
	if got := len(tr.Trace(sp.Context().TraceID)); got != 1 {
		t.Fatalf("root span not stored: %d spans", got)
	}
}

func TestSpanTreeAndDurations(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk, WithOrigin("manager"), WithStore(8))
	root := tr.StartSpan(Context{}, "handoff")
	clk.Advance(2 * time.Millisecond)
	child := tr.StartSpan(root.Context(), "rpc:agent.checkpoint")
	child.SetAttr("station", "st-b")
	clk.Advance(3 * time.Millisecond)
	child.End(nil)
	clk.Advance(time.Millisecond)
	root.End(nil)

	spans := tr.Trace(root.Context().TraceID)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "handoff" || spans[1].Parent != spans[0].SpanID {
		t.Fatalf("tree shape wrong: %+v", spans)
	}
	if spans[1].DurationMs != 3 {
		t.Fatalf("child duration = %vms, want 3 (virtual clock)", spans[1].DurationMs)
	}
	if spans[0].DurationMs != 6 {
		t.Fatalf("root duration = %vms, want 6", spans[0].DurationMs)
	}
	if spans[1].Attrs["station"] != "st-b" {
		t.Fatalf("attr lost: %+v", spans[1].Attrs)
	}
	if ConnectedSize(spans) != 2 {
		t.Fatalf("ConnectedSize = %d, want 2", ConnectedSize(spans))
	}
}

func TestSamplingRatio(t *testing.T) {
	tr := New(clock.NewVirtual(), WithStore(2048), WithSampleRatio(0.25))
	sampled := 0
	for i := 0; i < 400; i++ {
		sp := tr.StartSpan(Context{}, "root")
		if sp.Context().Sampled {
			sampled++
		}
		sp.End(nil)
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 400 roots at ratio 0.25, want exactly 100 (deterministic accumulator)", sampled)
	}
	// Unsampled spans must not propagate.
	tr2 := New(clock.NewVirtual(), WithSampleRatio(0))
	if h := tr2.StartSpan(Context{}, "x").Context().Header(); h != "" {
		t.Fatalf("unsampled span emitted header %q", h)
	}
}

func TestStoreEviction(t *testing.T) {
	tr := New(clock.NewVirtual(), WithStore(4))
	var first string
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan(Context{}, "root")
		if i == 0 {
			first = sp.Context().TraceID
		}
		sp.End(nil)
	}
	if got := tr.Traces(); len(got) != 4 {
		t.Fatalf("store holds %d traces, want 4", len(got))
	}
	if len(tr.Trace(first)) != 0 {
		t.Fatal("oldest trace survived eviction")
	}
}

func TestBufferDrain(t *testing.T) {
	tr := New(clock.NewVirtual(), WithOrigin("st-1"), WithBuffer(3))
	for i := 0; i < 5; i++ {
		tr.StartSpan(Context{}, fmt.Sprintf("op-%d", i)).End(errors.New("boom"))
	}
	got := tr.Drain()
	if len(got) != 3 {
		t.Fatalf("drained %d spans, want 3 (buffer cap)", len(got))
	}
	if got[0].Name != "op-2" {
		t.Fatalf("overflow should drop oldest; first drained = %s", got[0].Name)
	}
	if got[0].Err != "boom" {
		t.Fatalf("error not recorded: %+v", got[0])
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", tr.Dropped())
	}
	if tr.Drain() != nil {
		t.Fatal("second drain not empty")
	}
}

func TestIngestRemoteSpans(t *testing.T) {
	tr := New(clock.NewVirtual(), WithOrigin("manager"), WithStore(8))
	root := tr.StartSpan(Context{}, "handoff")
	root.End(nil)
	tr.Ingest(SpanRecord{
		TraceID: root.Context().TraceID, SpanID: "abcd000000000001",
		Parent: root.Context().SpanID, Name: "agent:activate", Origin: "st-b",
	})
	spans := tr.Trace(root.Context().TraceID)
	if len(spans) != 2 || ConnectedSize(spans) != 2 {
		t.Fatalf("remote span not merged into tree: %+v", spans)
	}
}

func TestConnectedSizeIgnoresOrphansAndCycles(t *testing.T) {
	spans := []SpanRecord{
		{SpanID: "a", Parent: ""},
		{SpanID: "b", Parent: "a"},
		{SpanID: "c", Parent: "missing"}, // orphan: parent never arrived
		{SpanID: "d", Parent: "e"},       // cycle
		{SpanID: "e", Parent: "d"},
	}
	if got := ConnectedSize(spans); got != 2 {
		t.Fatalf("ConnectedSize = %d, want 2", got)
	}
}

func TestJournalOrderingAndFiltering(t *testing.T) {
	clk := clock.NewVirtual()
	j := NewJournal(clk, 4)
	j.Append(Event{Type: EventAttach, Subject: "chain-1"})
	j.Append(Event{Type: EventMigrate, Subject: "chain-1"})
	j.Append(Event{Type: EventScale, Subject: "pool-1"})

	all := j.Events(0)
	if len(all) != 3 {
		t.Fatalf("got %d events, want 3", len(all))
	}
	for i, ev := range all {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq not causal: %+v", all)
		}
	}
	if got := j.Events(0, EventMigrate); len(got) != 1 || got[0].Subject != "chain-1" {
		t.Fatalf("type filter wrong: %+v", got)
	}
	if got := j.Events(2); len(got) != 1 || got[0].Type != EventScale {
		t.Fatalf("after filter wrong: %+v", got)
	}

	// Ring eviction burns seq numbers but keeps order.
	j.Append(Event{Type: EventDetach})
	j.Append(Event{Type: EventFailover})
	got := j.Events(0)
	if len(got) != 4 || got[0].Seq != 2 || got[3].Seq != 5 {
		t.Fatalf("eviction broke ordering: %+v", got)
	}
	if j.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", j.LastSeq())
	}
}
