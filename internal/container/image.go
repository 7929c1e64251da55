// Package container implements the lightweight container runtime that GNF
// stations run NFs in (§2 of the paper). It is a from-scratch simulation of
// the Linux-container substrate the authors used: images pulled from a
// central repository, millisecond-class create/start/stop lifecycle,
// checkpoint/restore of application state, and per-container resource
// accounting against a host capacity.
//
// The runtime models *costs* rather than executing kernel namespaces: every
// delay (image transfer, boot, checkpoint) is taken on an injected
// clock.Clock, so experiments measuring instantiation latency, density and
// migration downtime exercise the same control flow as the real system with
// deterministic, configurable numbers. The cost defaults follow the
// container-vs-VM gap reported for LXC-class runtimes (tens of
// milliseconds) and are overridable per runtime.
package container

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gnf/internal/clock"
)

// Errors returned by the repository and runtime.
var (
	ErrImageUnknown    = errors.New("container: image unknown")
	ErrNoSuchContainer = errors.New("container: no such container")
	ErrBadState        = errors.New("container: operation invalid in current state")
	ErrCapacity        = errors.New("container: host memory capacity exceeded")
	ErrNameInUse       = errors.New("container: name already in use")
	ErrNoStateHandler  = errors.New("container: no state handler installed")
)

// Image describes an NF image in the central repository.
type Image struct {
	Name string `json:"name"` // e.g. "gnf/firewall:1.0"
	// SizeBytes is the transfer size on pull (compressed image).
	SizeBytes int64 `json:"size_bytes"`
	// MemoryBytes is the resident footprint of a running instance.
	MemoryBytes uint64 `json:"memory_bytes"`
	// CPUPercent is the idle-state CPU share of a running instance.
	CPUPercent float64 `json:"cpu_percent"`
}

// Repository is the central NF store (§3: the Agent "retrieves (if not
// already hosted locally) the NF from a central repository"). Pulls cost
// transfer time at the repository's link rate on the injected clock.
type Repository struct {
	clk     clock.Clock
	rateBps int64 // download rate; 0 = instantaneous
	rtt     time.Duration

	mu     sync.RWMutex
	images map[string]Image
	pulls  int
	bytes  int64
	fail   error // injected fault: non-nil fails all pulls
}

// NewRepository creates a repository serving pulls at rateBps with the
// given round-trip setup latency.
func NewRepository(clk clock.Clock, rateBps int64, rtt time.Duration) *Repository {
	return &Repository{clk: clk, rateBps: rateBps, rtt: rtt, images: make(map[string]Image)}
}

// Push registers (or replaces) an image.
func (r *Repository) Push(img Image) {
	r.mu.Lock()
	r.images[img.Name] = img
	r.mu.Unlock()
}

// Lookup returns image metadata without transferring it.
func (r *Repository) Lookup(name string) (Image, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	img, ok := r.images[name]
	return img, ok
}

// Images lists registered images sorted by name.
func (r *Repository) Images() []Image {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Image, 0, len(r.images))
	for _, img := range r.images {
		out = append(out, img)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetFailure injects a pull fault (nil clears it). Tests use it to model a
// repository outage.
func (r *Repository) SetFailure(err error) {
	r.mu.Lock()
	r.fail = err
	r.mu.Unlock()
}

// Pull transfers an image, costing rtt + size/rate of clock time. It
// returns the image and the modeled transfer duration.
func (r *Repository) Pull(name string) (Image, time.Duration, error) {
	r.mu.Lock()
	if r.fail != nil {
		err := r.fail
		r.mu.Unlock()
		return Image{}, 0, err
	}
	img, ok := r.images[name]
	if ok {
		r.pulls++
		r.bytes += img.SizeBytes
	}
	r.mu.Unlock()
	if !ok {
		return Image{}, 0, fmt.Errorf("%w: %s", ErrImageUnknown, name)
	}
	d := r.rtt
	if r.rateBps > 0 {
		d += time.Duration(img.SizeBytes * 8 * int64(time.Second) / r.rateBps)
	}
	if d > 0 {
		r.clk.Sleep(d)
	}
	return img, d, nil
}

// PullStats reports cumulative pull count and bytes served.
func (r *Repository) PullStats() (pulls int, bytes int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pulls, r.bytes
}
