package main

import (
	"fmt"
	"time"

	"gnf/internal/agent"
	"gnf/internal/container"
	"gnf/internal/core"
	"gnf/internal/manager"
	"gnf/internal/topology"
)

// The modelled hardware is part of the workload definition, not of the
// program under test. These are literal copies of the program's cost model
// and image catalogue at the commit that defined the benchmark;
// checkPinned fails the run when the program's values drift from them, so
// a later change cannot move roam_* by editing a constant.
var (
	pinnedCosts = container.CostModel{
		Create:       10 * time.Millisecond,
		Start:        110 * time.Millisecond,
		Stop:         25 * time.Millisecond,
		Pause:        5 * time.Millisecond,
		CheckpointKB: 40 * time.Microsecond,
		RestoreKB:    60 * time.Microsecond,
	}
	pinnedImage = container.Image{SizeBytes: 4 << 20, MemoryBytes: 6 << 20, CPUPercent: 2}
)

const (
	pinnedRepoRateBps = 100_000_000
	pinnedRepoRTT     = 5 * time.Millisecond
)

// Every NF kind a workload deploys.
var benchKinds = []string{"firewall", "httpfilter", "ratelimit", "nat", "counter"}

func checkPinned() error {
	if container.ContainerCosts != pinnedCosts {
		return fmt.Errorf("modelled hardware drifted: container.ContainerCosts = %+v, benchmark pins %+v",
			container.ContainerCosts, pinnedCosts)
	}
	defaults := make(map[string]container.Image)
	for _, img := range core.DefaultImages() {
		defaults[img.Name] = img
	}
	for _, img := range pinnedImages() {
		if got, ok := defaults[img.Name]; !ok || got != img {
			return fmt.Errorf("modelled hardware drifted: core.DefaultImages()[%s] = %+v, benchmark pins %+v",
				img.Name, got, img)
		}
	}
	return nil
}

func pinnedImages() []container.Image {
	imgs := make([]container.Image, 0, len(benchKinds))
	for _, k := range benchKinds {
		img := pinnedImage
		img.Name = agent.ImageForKind(k)
		imgs = append(imgs, img)
	}
	return imgs
}

// systemConfig is the two-station deployment every fwd_* and roam_*
// workload runs on, with the modelled repository passed explicitly.
func systemConfig(strategy manager.Strategy) core.Config {
	return core.Config{
		Strategy:       strategy,
		RepoRateBps:    pinnedRepoRateBps,
		RepoRTT:        pinnedRepoRTT,
		ReportInterval: time.Hour, // health reports off the measured path
		Images:         pinnedImages(),
		Stations: []core.StationConfig{
			{ID: "st-a", Cells: []core.CellConfig{{ID: "cell-a", Center: topology.Point{X: 0}, Radius: 60}}},
			{ID: "st-b", Cells: []core.CellConfig{{ID: "cell-b", Center: topology.Point{X: 100}, Radius: 60}}},
		},
	}
}
