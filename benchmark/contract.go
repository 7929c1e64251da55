package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contract is BENCHMARK.json: the metrics each pass must report, with the
// direction and bound -compare judges them by.
type contract struct {
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractEntry  `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readContract finds BENCHMARK.json from the repository root or from
// benchmark/ itself (where `go run -C benchmark` and `go test` run).
func readContract() (*contract, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var c contract
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, firstErr
}
