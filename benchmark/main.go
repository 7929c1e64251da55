// Command benchmark is the repository's benchmark: six named workloads
// driven through the program's public functions, end-to-end metrics from
// an untraced pass and per-layer metrics from a traced one. BENCHMARK.json
// at the repository root is its contract; README.md here explains every
// workload and metric.
//
//	go run -C benchmark . -workload fwd_fast_64B            one workload, untraced
//	go run -C benchmark . -workload roam_live -trace 1      its traced pass
//	go run -C benchmark . -out ledger.json                  everything, both passes
//	go run -C benchmark . -compare a.json b.json            judge b against a
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// workloadNames in the order "all" runs them.
var workloadNames = []string{
	"fwd_fast_64B", "fwd_scatter_64B", "fwd_chain5_1500B",
	"roam_stateful", "roam_live", "storm_2k",
}

func main() {
	var (
		workload = flag.String("workload", "all", "one of "+fmt.Sprint(workloadNames)+", or all")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics instead of end-to-end ones")
		out      = flag.String("out", "", "write the full results to this JSON file")
		smoke    = flag.Bool("smoke", false, "smallest run that still exercises every check")
		spans    = flag.String("spans", "", "where the traced pass writes its spans (default trace-<workload>.json)")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	contract, err := readContract()
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(contract.RunSeconds)
	}
	if err := checkPinned(); err != nil {
		fatal(err)
	}
	cfg := fullConfig(*seed, *seconds)
	if *smoke {
		cfg = smokeConfig(*seed)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *smoke, *out))
	}

	if *spans == "" {
		*spans = "trace-" + *workload + ".json"
	}
	res, runErr := runWorkload(*workload, cfg, *trace == 1, *spans)
	if res == nil {
		fatal(runErr)
	}
	res.print(os.Stdout)
	if *out != "" {
		key := *workload
		if *trace == 1 {
			key += "/trace"
		}
		l := newLedger(*seed, *seconds)
		l.Runs[key] = res
		if err := l.write(*out); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
	// The contract's result line: exactly the metrics BENCHMARK.json lists
	// for this pass, nothing else.
	want := contract.EndToEnd
	if *trace == 1 {
		want = contract.PerLayer
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]lineMetric, len(want))}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			fatal(fmt.Errorf("%s did not produce %s", *workload, m.Name))
		}
		line.Metrics[m.Name] = lineMetric{Value: got.Value, Unit: got.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runWorkload dispatches one workload's untraced or traced pass.
func runWorkload(name string, cfg runConfig, traced bool, spansPath string) (*workloadResult, error) {
	if traced {
		return runTraced(name, cfg, spansPath)
	}
	res, err := runUntraced(name, cfg, nil)
	if res != nil && err == nil {
		res.set("peak_rss_mib", single("MiB", peakRSSMiB()))
	}
	return res, err
}

// runUntraced runs the workload itself. rec is nil for the end-to-end
// pass; the traced pass calls it again with a recorder.
func runUntraced(name string, cfg runConfig, rec *recorder) (*workloadResult, error) {
	for _, s := range fwdSpecs {
		if s.name == name {
			return runFwd(s, cfg, rec)
		}
	}
	for _, s := range roamSpecs {
		if s.name == name {
			return runRoam(s, cfg, rec)
		}
	}
	if name == stormName {
		return runStorm(cfg, rec)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runAll is the one command that prints every metric: each workload's
// untraced then traced pass in its own process (so peak RSS and set-up
// time belong to that workload alone), merged into one ledger.
func runAll(seed int64, seconds float64, smoke bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	all := newLedger(seed, seconds)
	tmp, err := os.CreateTemp(".", "ledger-*.json")
	if err != nil {
		fatal(err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	status := 0
	for _, traced := range []int{0, 1} {
		for _, w := range workloadNames {
			args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(traced), "-out", tmp.Name()}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w, traced, err)
				status = 1
			}
			if l, err := readLedger(tmp.Name()); err == nil {
				for k, r := range l.Runs {
					all.Runs[k] = r
				}
			}
		}
	}
	if out != "" {
		if err := all.write(out); err != nil {
			fatal(err)
		}
	}
	return status
}
