package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
)

// sizes fixes the problem size of every workload.  The benchmark runs
// fullSizes; the package test runs a smaller set.
type sizes struct {
	dim, block     int // cholesky: matrix dimension and block size
	tasks, objects int // taskstorm: tasks per solve and tracked objects
	keys           int // multisort: keys per solve
}

var fullSizes = sizes{dim: 2048, block: 128, tasks: 20000, objects: 256, keys: 4 << 20}

// spans are the benchmark-side timings of one solve.
type spans struct {
	// timeSubmits asks for submit to be filled.  Only traced solves set
	// it: a clock read around every tiny Submit would slow the
	// untraced ones.
	timeSubmits bool
	// submit holds one entry per Context.Submit call the benchmark
	// makes itself (taskstorm only).
	submit []time.Duration
	// gen is the app or generator call that submits the graph.
	gen time.Duration
	// barrier is the benchmark's own Barrier call.  appBarrier marks a
	// workload whose app calls Barrier inside gen; its barrier wait
	// comes from the trace instead.
	barrier    time.Duration
	appBarrier bool
}

// access is one task parameter of the workload's access stream, as the
// isolated dependence and graph replays present it to the tracker.
type access struct {
	data   any
	mode   deps.Mode
	region deps.Region
}

// kernelKind is a task kind reported one by one under kernels.<name>.
type kernelKind struct {
	name string
	// cubes is the operation count of one call on an m×m block, in
	// units of m³ (0: no rate is reported).
	cubes float64
}

var (
	choleskyKinds  = []kernelKind{{"spotrf_t", 1.0 / 3}, {"strsm_t", 1}, {"ssyrk_t", 1}, {"sgemm_nt_t", 2}}
	multisortKinds = []kernelKind{{name: "seqquick"}, {name: "seqmerge"}}
	// reportedKinds are the kinds every run reports.
	reportedKinds = append(append([]kernelKind(nil), choleskyKinds...), multisortKinds...)
)

// rate is a workload's own throughput figure, printed in the report.
type rate struct {
	name, unit string
	// perSolve is the work of one solve in the rate's unit times seconds.
	perSolve float64
}

// workload is one benchmark program.  All methods run on the single
// submitter goroutine.
type workload interface {
	// bind points the workload's submissions at ctx.
	bind(ctx *core.Context)
	// reset restores the inputs with plain copies.
	reset()
	// solve submits one whole problem, waits for it at a barrier and
	// fills sp.
	solve(sp *spans) error
	// check verifies the output of the last solve.
	check() error
	// corrupt damages the output of the last solve; the package test
	// uses it to prove that check fails.
	corrupt()
	// seqSolve runs one plain sequential solve of the same problem on
	// private storage and returns its time, input reset excluded.
	seqSolve() time.Duration
	// stream returns the task access stream of one solve, in
	// submission order, for the isolated replays.
	stream() [][]access
	// kinds lists the task kinds reported one by one.
	kinds() []kernelKind
	// rate is the workload's own throughput figure.
	rate() rate
}

var workloadNames = []string{"cholesky", "taskstorm", "multisort"}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "cholesky":
		return newCholesky(seed, sz.dim, sz.block), nil
	case "taskstorm":
		return newTaskstorm(seed, sz.tasks, sz.objects), nil
	case "multisort":
		return newMultisort(seed, sz.keys), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
