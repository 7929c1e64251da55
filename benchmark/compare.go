package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of -compare, one per (run, metric).
const (
	verdictOK         = "ok"         // b's median is no worse than a's by more than the bound
	verdictRegressed  = "REGRESSED"  // worse by more than the bound
	verdictUnresolved = "unresolved" // within the bound, but a side's own spread is wider than the bound
	verdictChanged    = "CHANGED"    // an exact count differs
	verdictInfo       = "-"          // per-layer metric: no bound, shown for the eye
)

// judge compares one metric of ledger b against ledger a. better is
// "lower" or "higher"; bound <= 0 means the metric has none.
func judge(a, b Metric, better string, bound float64) (verdict string, worseBy float64) {
	if a.Exact || b.Exact {
		if a.Value != b.Value {
			return verdictChanged, 0
		}
		return verdictOK, 0
	}
	if a.Value != 0 {
		worseBy = (b.Value - a.Value) / a.Value
		if better == "higher" {
			worseBy = -worseBy
		}
	}
	if bound <= 0 {
		return verdictInfo, worseBy
	}
	if worseBy > bound {
		return verdictRegressed, worseBy
	}
	if relSpread(a) > bound || relSpread(b) > bound {
		return verdictUnresolved, worseBy
	}
	return verdictOK, worseBy
}

// relSpread is a metric's interquartile range as a share of its median.
func relSpread(m Metric) float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	s := (m.Q3 - m.Q1) / m.Value
	if s < 0 {
		s = -s
	}
	return s
}

// runCompare prints one row per (run, metric) present in both ledgers and
// returns the process exit code: 1 if anything regressed or an exact
// count changed.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readLedger(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readLedger(pathB)
	if err != nil {
		fatal(err)
	}
	c, err := readContract()
	if err != nil {
		fatal(err)
	}
	return compareLedgers(w, a, b, c)
}

func compareLedgers(w io.Writer, a, b *ledger, c *contract) int {
	rules := make(map[string]contractMetric)
	for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
		rules[m.Name] = m
	}
	runs := make([]string, 0, len(a.Runs))
	for k := range a.Runs {
		if _, ok := b.Runs[k]; ok {
			runs = append(runs, k)
		}
	}
	sort.Strings(runs)
	status := 0
	fmt.Fprintf(w, "%-24s %-34s %14s %27s %14s %27s %8s  %s\n",
		"run", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "worse by", "verdict")
	for _, run := range runs {
		ra, rb := a.Runs[run], b.Runs[run]
		if rb.Failed > ra.Failed || (ra.Correct && !rb.Correct) {
			fmt.Fprintf(w, "%-24s operations failed: a %d of %d, b %d of %d  %s\n",
				run, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, verdictRegressed)
			status = 1
		}
		names := make([]string, 0, len(ra.Metrics))
		for n := range ra.Metrics {
			if _, ok := rb.Metrics[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			ma, mb := ra.Metrics[n], rb.Metrics[n]
			rule := rules[n]
			verdict, worseBy := judge(ma, mb, rule.Better, rule.Bound)
			if verdict == verdictRegressed || verdict == verdictChanged {
				status = 1
			}
			fmt.Fprintf(w, "%-24s %-34s %14.4f %27s %14.4f %27s %+7.1f%%  %s\n",
				run, n, ma.Value, quartiles(ma), mb.Value, quartiles(mb), worseBy*100, verdict)
		}
	}
	return status
}

func quartiles(m Metric) string {
	if m.N < 2 || (m.Q1 == 0 && m.Q3 == 0) {
		return ""
	}
	return fmt.Sprintf("[%.4f, %.4f]", m.Q1, m.Q3)
}
