// Command smpssperf is the repository's benchmark: it drives the SMPSs
// runtime on one of three workloads as a closed loop (one submitter
// goroutine submits a solve, waits for it at the barrier, checks the
// result, and starts the next) and prints its metrics.
//
//	go run . -workload cholesky -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the run is untraced and reports the end-to-end metrics.
// With -trace 1 it reports the per-layer metrics: runtime counters, a
// traced phase (the context's Tracer and Recorder plus spans the
// benchmark takes around its own calls) and isolated replays of single
// layers.  Human-readable report lines come first; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.  See METRICS.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	cfg := config{sizes: fullSizes, out: os.Stdout}
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cholesky, taskstorm or multisort")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring time of the run in seconds")
	flag.IntVar(&traced, "trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintf(os.Stderr, "smpssperf: -trace must be 0 or 1, got %d\n", traced)
		os.Exit(2)
	}
	cfg.trace = traced == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smpssperf: %v\n", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "smpssperf: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
