package netem

import "sync/atomic"

// counterStripes is the cell count of a stripedCounter (power of two).
const counterStripes = 16

// stripedCounter spreads hot-path increments across cache-line-padded
// cells so concurrent ports don't serialise on one counter line — a
// shared atomic.Uint64 becomes the scaling bottleneck of the forwarding
// pipeline once the table mutex is gone. Reads sum the cells; they are
// monotonic but not a point-in-time snapshot, which is all a statistics
// counter needs.
type stripedCounter struct {
	cells [counterStripes]counterCell
}

type counterCell struct {
	n atomic.Uint64
	// Pad past a full cache line (the array is not guaranteed to start
	// line-aligned, and adjacent-line prefetchers pair lines).
	_ [120]byte
}

// Add adds n to the cell selected by stripe (callers pass something
// stable per concurrent context, e.g. the arrival port) and returns the
// cell's new value, so per-frame consumers like the sampler can number a
// batch's frames from the one addition the pipeline already pays for.
// Adding zero — most of a batch's event counters, most of the time — costs a
// load, not a locked instruction.
func (c *stripedCounter) Add(stripe uint, n uint64) uint64 {
	cell := &c.cells[stripe&(counterStripes-1)].n
	if n == 0 {
		return cell.Load()
	}
	return cell.Add(n)
}

// Cell returns one stripe's current value (for seeding thresholds that
// trigger off Add's return).
func (c *stripedCounter) Cell(stripe uint) uint64 {
	return c.cells[stripe&(counterStripes-1)].n.Load()
}

// Load returns the sum of all cells.
func (c *stripedCounter) Load() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}
