package main

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileMath(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 3}, {50, 5}, {75, 7}, {100, 9}, {90, 8.2}} {
		if got := percentile(s, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	m := summarize("ms", []float64{30, 10, 20, 50, 40})
	want := Metric{Value: 30, Unit: "ms", N: 5, Q1: 20, Q3: 40, Min: 10, Max: 50}
	if m != want {
		t.Errorf("summarize = %+v, want %+v", m, want)
	}
}

// The tail a sample supports is the highest percentile with at least ten
// samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{16, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSampleRingKeepsMostRecent(t *testing.T) {
	r := newSampleRing(4)
	for i := 1; i <= 6; i++ {
		r.add(float64(i))
	}
	if got := r.sorted(); !reflect.DeepEqual(got, []float64{3, 4, 5, 6}) {
		t.Errorf("ring holds %v, want the last four", got)
	}
	r.reset()
	r.add(9)
	if got := r.sorted(); !reflect.DeepEqual(got, []float64{9}) {
		t.Errorf("ring after reset holds %v", got)
	}
}

// The generator may never have more than the window in flight, however
// the sink batches its deliveries.
func TestWindowBoundsFramesInFlight(t *testing.T) {
	w := newWindow(windowFrames, time.Second)
	var inFlight atomic.Int64
	wire := make(chan int, 64)
	done := make(chan struct{})
	go func() { // the sink: takes deliveries as they come, grants whole units back
		defer close(done)
		pending := 0
		for n := range wire {
			for pending += n; pending >= grantEvery; pending -= grantEvery {
				inFlight.Add(-grantEvery)
				w.grant(grantEvery)
			}
		}
	}()
	rng := rand.New(rand.NewSource(1))
	var maxSeen int64
	for i := 0; i < 5000; i++ {
		if err := w.acquire(grantEvery); err != nil {
			t.Fatal(err)
		}
		if cur := inFlight.Add(grantEvery); cur > maxSeen {
			maxSeen = cur
		}
		// Deliver in two uneven parts so grants straddle unit boundaries.
		first := rng.Intn(grantEvery)
		wire <- first
		wire <- grantEvery - first
	}
	if err := w.drain(); err != nil {
		t.Fatal(err)
	}
	close(wire)
	<-done
	if maxSeen > windowFrames {
		t.Errorf("%d frames in flight, window is %d", maxSeen, windowFrames)
	}
	if maxSeen < windowFrames {
		t.Errorf("window never filled: at most %d in flight", maxSeen)
	}
	if got := inFlight.Load(); got != 0 {
		t.Errorf("%d frames in flight after drain", got)
	}
}

func TestWindowStallIsAnError(t *testing.T) {
	w := newWindow(windowFrames, 10*time.Millisecond)
	for i := 0; i < windowFrames/grantEvery; i++ {
		if err := w.acquire(grantEvery); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.acquire(grantEvery); !errors.Is(err, errStalled) {
		t.Errorf("acquire on a full window with no deliveries = %v, want errStalled", err)
	}
}

func TestAccountRoams(t *testing.T) {
	windows := []roamWindow{{100, 200}, {200, 300}}
	sentAt := make([]int64, 301)
	for i := range sentAt {
		sentAt[i] = int64(i) * int64(time.Millisecond)
	}
	var log []arrival
	arrive := func(seq uint32, rewritten bool) {
		log = append(log, arrival{seq: seq, at: int64(len(log)+1) * int64(time.Millisecond), rewritten: rewritten})
	}
	for seq := uint32(90); seq < 300; seq++ { // 90..99 precede the first window and are ignored
		switch {
		case seq >= 110 && seq < 120, seq == 250: // lost
		case seq >= 120 && seq < 130: // bypassed the chain
			arrive(seq, false)
		case seq == 130: // reordered with its successor: still delivered
			arrive(131, true)
			arrive(130, true)
		case seq == 131:
		case seq == 140: // a duplicate counts once, as first seen
			arrive(140, true)
			arrive(140, false)
		default:
			arrive(seq, true)
		}
	}
	gaps := accountRoams(log, windows, sentAt)
	if g := gaps[0]; g.lost != 10 || g.unrewritten != 10 || g.unserved != 20*time.Millisecond {
		t.Errorf("first roam: %+v, want 10 lost, 10 un-rewritten, 20ms unserved", g)
	}
	if g := gaps[1]; g.lost != 1 || g.unrewritten != 0 || g.unserved != time.Millisecond {
		t.Errorf("second roam: %+v, want 1 lost, 1ms unserved", g)
	}
	if gaps[0].stall != time.Millisecond || gaps[1].stall != time.Millisecond {
		t.Errorf("stalls %v and %v: the synthetic log arrives every millisecond", gaps[0].stall, gaps[1].stall)
	}
	// A frame the generator never followed up stands for one nominal interval.
	short := accountRoams(nil, []roamWindow{{0, 2}}, []int64{0, int64(3 * time.Millisecond)})
	if short[0].lost != 2 || short[0].unserved != 4*time.Millisecond {
		t.Errorf("unfollowed frame: %+v, want 2 lost and 3ms+1ms unserved", short[0])
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	res := newResult("fwd_fast_64B")
	res.Attempted, res.Failed = 1000, 0
	res.set("ops_per_sec", summarize("1/s", []float64{1.5e6, 1.25e6, 1.125e6}))
	res.set("nf.state_bytes", exact("B", 269672))
	res.alias("frames_per_sec", "ops_per_sec")
	res.note("a note")
	in := &ledger{Seed: 7, Seconds: 10, Go: "go1.24", Procs: 2, Runs: map[string]*workloadResult{"fwd_fast_64B": res}}
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := in.write(path); err != nil {
		t.Fatal(err)
	}
	out, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("ledger changed in the round trip:\n in %+v\nout %+v", in.Runs["fwd_fast_64B"], out.Runs["fwd_fast_64B"])
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	type inputs struct {
		flows []flowTuple
		tmpl  []byte
		nat   []uint16
		order []int
	}
	gen := func(seed int64) inputs {
		rng := rand.New(rand.NewSource(seed))
		return inputs{genFlows(rng, 1000), genFrameTemplate(rng, 1500), genNATSeedPorts(rng, 100), genStormOrder(rng, 200)}
	}
	a, again, b := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed produced different inputs")
	}
	if reflect.DeepEqual(a.flows, b.flows) || bytes.Equal(a.tmpl, b.tmpl) ||
		reflect.DeepEqual(a.nat, b.nat) || reflect.DeepEqual(a.order, b.order) {
		t.Error("another seed left some input unchanged")
	}
	seen := make(map[flowTuple]bool)
	for _, f := range genFlows(rand.New(rand.NewSource(3)), 100000) {
		if seen[f] {
			t.Fatalf("flow %v generated twice", f)
		}
		seen[f] = true
	}
	if len(a.tmpl) != 1500 {
		t.Errorf("template is %d bytes, want 1500", len(a.tmpl))
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := func(v float64) Metric { return Metric{Value: v, Unit: "x", N: 8, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) Metric { return Metric{Value: v, Unit: "x", N: 8, Q1: v * 0.9, Q3: v * 1.1} }
	for _, c := range []struct {
		name   string
		a, b   Metric
		better string
		bound  float64
		want   string
	}{
		{"within the bound", tight(100), tight(105), "lower", 0.1, verdictOK},
		{"worse than the bound", tight(100), tight(115), "lower", 0.1, verdictRegressed},
		{"better, lower", tight(100), tight(50), "lower", 0.1, verdictOK},
		{"higher is better, fell", tight(1000), tight(850), "higher", 0.1, verdictRegressed},
		{"higher is better, rose", tight(1000), tight(1200), "higher", 0.1, verdictOK},
		{"own spread wider than the bound", wide(100), tight(105), "lower", 0.1, verdictUnresolved},
		{"wide spread does not hide a regression", wide(100), tight(130), "lower", 0.1, verdictRegressed},
		{"exact and equal", exact("count", 7), exact("count", 7), "lower", 0, verdictOK},
		{"exact and different", exact("count", 7), exact("count", 8), "lower", 0, verdictChanged},
		{"per-layer, no bound", tight(100), tight(300), "lower", 0, verdictInfo},
	} {
		if got, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	contract := &contract{EndToEnd: []contractMetric{{Name: "ops_per_sec", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	side := func(ops float64, rpcs float64) *ledger {
		r := newResult("storm_2k")
		r.Attempted = 2000
		r.set("ops_per_sec", tight(ops))
		r.set("agent.rpcs_per_handoff", exact("count", rpcs))
		return &ledger{Runs: map[string]*workloadResult{"storm_2k": r}}
	}
	var out bytes.Buffer
	if code := compareLedgers(&out, side(3000, 7), side(2950, 7), contract); code != 0 {
		t.Errorf("unchanged pair exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareLedgers(&out, side(3000, 7), side(2000, 7), contract); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("regressed pair exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareLedgers(&out, side(3000, 7), side(3000, 9), contract); code != 1 || !strings.Contains(out.String(), verdictChanged) {
		t.Errorf("changed exact count exits %d:\n%s", code, out.String())
	}
}

func TestPinnedHardwareMatchesProgram(t *testing.T) {
	if err := checkPinned(); err != nil {
		t.Fatal(err)
	}
}

// Every workload at its smallest size, with all correctness checks, plus
// one traced pass (storm_2k's probes a workload of both other kinds, so
// it walks every traced code path). Each must report every metric the
// contract promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	contract, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(contract.Workloads); got != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the runner has %d", got, len(workloadNames))
	}
	cfg := smokeConfig(1)
	for i, name := range workloadNames {
		if contract.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is %q, the runner's is %q", i, contract.Workloads[i].Name, name)
		}
		res, err := runWorkload(name, cfg, false, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range contract.EndToEnd {
			if got, ok := res.Metrics[m.Name]; !ok || got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", name, m.Name, got, m.Unit)
			}
		}
	}
	res, err := runWorkload(stormName, cfg, true, filepath.Join(t.TempDir(), "spans.json"))
	if err != nil {
		t.Fatalf("traced %s: %v", stormName, err)
	}
	for _, m := range contract.PerLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("traced pass: %s = %+v, want a value in %s", m.Name, got, m.Unit)
		}
	}
	for _, name := range []string{"core.model_downtime_ms", "core.model_total_ms"} {
		if got := res.Metrics[name]; !got.Exact || got.Value <= 0 {
			t.Errorf("traced pass: %s = %+v, want an exact positive model time", name, got)
		}
	}
}
