package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runConfig sizes one run: setups rounds, each of which builds the system
// from nothing, measures, checks and tears down. Everything is derived
// from -seconds (or the fixed -smoke sizes), so a run measures for the
// time it was asked to.
type runConfig struct {
	seed   int64
	setups int // rounds per run; setup_s is the median of their set-ups

	// Dataplane, per round: slices timed slices of sliceDur after a warmup slice.
	slices   int
	sliceDur time.Duration
	warmup   time.Duration

	// Control plane, per round: roams and storms repeat until budget has
	// elapsed, but at least minOps and (when > 0) at most maxOps times.
	budget         time.Duration
	minOps, maxOps int
	stormClients   int
	dwell          time.Duration

	// Traced pass: how long each isolated layer loop runs.
	loopDur time.Duration
}

const (
	roundsPerRun   = 3
	slicesPerRound = 3
)

func fullConfig(seed int64, seconds float64) runConfig {
	round := time.Duration(seconds * float64(time.Second) / roundsPerRun)
	return runConfig{
		seed: seed, setups: roundsPerRun,
		slices: slicesPerRound, sliceDur: round / slicesPerRound, warmup: warmupSlice,
		budget: round, minOps: 2, stormClients: 2000, dwell: 100 * time.Millisecond,
		loopDur: roundsPerRun * round / 48,
	}
}

// smokeConfig is the smallest run that still passes through every code
// path and every correctness check.
func smokeConfig(seed int64) runConfig {
	return runConfig{
		seed: seed, setups: 1,
		slices: 1, sliceDur: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
		minOps: 2, maxOps: 2, stormClients: 200, dwell: 20 * time.Millisecond,
		loopDur: 20 * time.Millisecond,
	}
}

// probe shrinks cfg to the size the traced pass uses for workloads of a
// kind other than the one it was asked for.
func (c runConfig) probe() runConfig {
	p := smokeConfig(c.seed)
	p.loopDur = c.loopDur
	return p
}

// oneRound is what the traced pass runs of the workload itself, twice.
func (c runConfig) oneRound() runConfig {
	c.setups = 1
	return c
}

// opsDone reports whether a repeat-until-budget loop has run enough.
func (c runConfig) opsDone(n int, elapsed time.Duration) bool {
	if n < c.minOps {
		return false
	}
	return (c.maxOps > 0 && n >= c.maxOps) || elapsed >= c.budget
}

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Aliases name a metric the way its workload would (frames_per_sec is
	// ops_per_sec on a dataplane workload); printed, never compared.
	Aliases map[string]string `json:"aliases,omitempty"`
	Notes   []string          `json:"notes,omitempty"`
}

func newResult(workload string) *workloadResult {
	return &workloadResult{Workload: workload, Correct: true,
		Metrics: make(map[string]Metric), Aliases: make(map[string]string)}
}

func (r *workloadResult) set(name string, m Metric) { r.Metrics[name] = m }

func (r *workloadResult) alias(name, of string) { r.Aliases[name] = of }

func (r *workloadResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail marks the run failed: every attempted operation counts as failed,
// and the caller exits non-zero.
func (r *workloadResult) fail(attempted uint64, err error) (*workloadResult, error) {
	if attempted == 0 {
		attempted = 1
	}
	r.Correct, r.Attempted, r.Failed, r.Error = false, attempted, attempted, err.Error()
	return r, err
}

// print writes the metric table: every metric by name with its unit, the
// sample count behind it, and the range of those samples.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	if r.Error != "" {
		fmt.Fprintf(w, "   ERROR: %s\n", r.Error)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("   %-36s %14.4f %-8s n=%d", n, m.Value, m.Unit, m.N)
		if m.N > 1 && (m.Min != 0 || m.Max != 0) {
			line += fmt.Sprintf("  min %.4f  q1 %.4f  q3 %.4f  max %.4f", m.Min, m.Q1, m.Q3, m.Max)
		}
		if m.Exact {
			line += "  (exact)"
		}
		fmt.Fprintln(w, line)
	}
	aliases := make([]string, 0, len(r.Aliases))
	for a := range r.Aliases {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		fmt.Fprintf(w, "   %-36s = %s\n", a, r.Aliases[a])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// ledger is the -out file: the results of one or more runs, keyed by
// "<workload>" for untraced and "<workload>/trace" for traced passes.
type ledger struct {
	Seed    int64                      `json:"seed"`
	Seconds float64                    `json:"seconds"`
	Go      string                     `json:"go"`
	Procs   int                        `json:"gomaxprocs"`
	Runs    map[string]*workloadResult `json:"runs"`
}

func newLedger(seed int64, seconds float64) *ledger {
	return &ledger{Seed: seed, Seconds: seconds, Go: runtime.Version(), Procs: runtime.GOMAXPROCS(0),
		Runs: make(map[string]*workloadResult)}
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func (l *ledger) write(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
