package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Metric is one reported figure. Value is the median of the N samples
// behind it (slices, roams, storms, loop repeats); Q1/Q3/Min/Max describe
// their spread so -compare can tell "unchanged" from "unresolved". Exact
// marks counts that must repeat bit-for-bit between runs of one commit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Exact bool    `json:"exact,omitempty"`
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// percentile returns the p-th percentile (0..100) of sorted samples by
// linear interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func median(samples []float64) float64 { return percentile(sortedCopy(samples), 50) }

// summarize reports samples as their median with quartiles and range.
func summarize(unit string, samples []float64) Metric {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return Metric{Unit: unit}
	}
	return Metric{
		Value: percentile(s, 50), Unit: unit, N: len(s),
		Q1: percentile(s, 25), Q3: percentile(s, 75),
		Min: s[0], Max: s[len(s)-1],
	}
}

// single reports one measured value.
func single(unit string, v float64) Metric { return Metric{Value: v, Unit: unit, N: 1} }

// exact reports a count that must repeat exactly.
func exact(unit string, v float64) Metric { return Metric{Value: v, Unit: unit, N: 1, Exact: true} }

// highestPercentile is the highest of p50/p90/p99/p99.9 that still has at
// least ten samples beyond it — the tail a sample of size n supports.
// Below 20 samples not even the median qualifies, and it is reported
// anyway, with the count beside it.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(100-p) >= 10*100-1e-6 {
			best = p
		}
	}
	return best
}

// tailNote describes a timing sample the way the results should be read:
// its median, the highest percentile it supports, its maximum and its size.
func tailNote(label, unit string, samples []float64) string {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return label + ": no samples"
	}
	p := highestPercentile(len(s))
	if p == 50 {
		return fmt.Sprintf("%s: p50 %.3f, max %.3f %s (n=%d supports no higher percentile)",
			label, percentile(s, 50), s[len(s)-1], unit, len(s))
	}
	return fmt.Sprintf("%s: p50 %.3f, p%g %.3f, max %.3f %s (n=%d; p%g is the highest percentile with ten samples beyond it)",
		label, percentile(s, 50), p, percentile(s, p), s[len(s)-1], unit, len(s), p)
}

// sampleRing keeps the most recent cap(buf) samples of a stream in a
// fixed buffer, so latency recording on a hot path never allocates and
// the benchmark's own memory stays flat however long it runs.
type sampleRing struct {
	buf  []float64
	next int
	full bool
}

func newSampleRing(n int) *sampleRing { return &sampleRing{buf: make([]float64, n)} }

func (r *sampleRing) add(v float64) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *sampleRing) reset() { r.next, r.full = 0, false }

// sorted returns the retained samples in ascending order.
func (r *sampleRing) sorted() []float64 {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	return sortedCopy(r.buf[:n])
}
