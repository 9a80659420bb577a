// Package bench is the experiment harness that regenerates every figure
// of the paper's evaluation section (§VI): workload generation, parameter
// sweeps, the SMPSs programs, the baselines, and fixed-width reporting.
//
// Absolute numbers differ from the paper (pure-Go kernels on a modern
// SMP instead of BLAS on a 32-core Itanium2 Altix); the harness exists
// to reproduce the *shapes*: who wins, by what factor, and where the
// curves bend.  EXPERIMENTS.md records paper-vs-measured per figure.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/kernels"
)

// Point is one measurement: X is the swept parameter (block size or
// thread count), Y the metric (Gflop/s or speedup).
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is one plotted line.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// add appends a point.
func (s *Series) add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Result is one regenerated figure.
type Result struct {
	// ID is the experiment identity ("fig08" ... "fig16", "ablation-*").
	ID string
	// Title describes the figure, matching the paper's caption.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the plotted lines.
	Series []Series
	// Notes carries harness remarks (scaled sizes, substitutions).
	Notes []string
	// Elapsed is the harness wall time for the whole experiment.
	Elapsed time.Duration
}

// Table renders the result as a fixed-width table, one row per X value
// and one column per series — the same rows a reader would extract from
// the paper's plot.
func (r *Result) Table(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	xs := r.xValues()
	// Header row.
	fmt.Fprintf(w, "%-10s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, " %20s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "%-10.6g", x)
		for _, s := range r.Series {
			if y, ok := lookup(s, x); ok {
				fmt.Fprintf(w, " %20.3f", y)
			} else {
				fmt.Fprintf(w, " %20s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   (%s: %s, elapsed %v)\n\n", r.YLabel, r.ID, r.Elapsed.Round(time.Millisecond))
}

// CSV renders the result as comma-separated values with a header.
func (r *Result) CSV(w io.Writer) {
	fmt.Fprintf(w, "x")
	for _, s := range r.Series {
		fmt.Fprintf(w, ",%s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range r.xValues() {
		fmt.Fprintf(w, "%g", x)
		for _, s := range r.Series {
			if y, ok := lookup(s, x); ok {
				fmt.Fprintf(w, ",%g", y)
			} else {
				fmt.Fprintf(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}

func (r *Result) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// SeriesByName returns the named series, or nil.
func (r *Result) SeriesByName(name string) *Series {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// Config scales the experiments.  The defaults reproduce the paper's
// shapes in minutes of wall time on a commodity SMP; Quick shrinks
// everything so the full suite runs in seconds (used by tests).
type Config struct {
	// Dim is the flat matrix dimension for Cholesky/GEMM (paper: 8192).
	Dim int
	// Block is the reference block size for thread sweeps (paper: 256).
	Block int
	// MaxThreads bounds the thread sweep (paper: 32).
	MaxThreads int
	// SortKeys is the Multisort input size (paper uses the Cilk example
	// scale; 32M keys).
	SortKeys int
	// QueensN is the N-Queens board size.
	QueensN int
	// StrassenDim and StrassenBlock size the Strassen run (paper:
	// 8192 with 512-element blocks).
	StrassenDim, StrassenBlock int
	// SparseLUBlocks and SparseLUBlock size the SparseLU extension
	// experiment (hyper-matrix blocks per dimension, elements per block).
	SparseLUBlocks, SparseLUBlock int
	// HeatBlocks, HeatBlock and HeatSweeps size the heat extension
	// experiment.
	HeatBlocks, HeatBlock, HeatSweeps int
	// Contexts is the client count for the multi-tenant experiment
	// (ablation-multitenant): K concurrent clients share one pool vs
	// run K independent runtimes.
	Contexts int
	// Provider names the tile-kernel provider every experiment's SMPSs
	// programs use ("simd", "tuned", "goto", "mkl"); empty selects
	// "tuned".  Experiments that sweep providers explicitly (the
	// paper's paired series, ablation-kernels) ignore it for the swept
	// series.
	Provider string
	// Profile records the machine-profile path applied before the run
	// (loaded by smpssbench via ApplyProfile; informational here so
	// JSON reports carry it).
	Profile string `json:",omitempty"`
	// ProfileOut, when set, makes the tune experiment persist its
	// measured machine profile there (the -tune flag path).
	ProfileOut string `json:",omitempty"`
	// Quick selects the test-scale configuration.
	Quick bool
}

// provider resolves the configured tile-kernel provider.
func (c Config) provider() kernels.Provider { return kernels.ByName(c.Provider) }

// Normalize fills defaults.
func (c Config) Normalize() Config {
	def := func(v *int, d, q int) {
		if *v == 0 {
			if c.Quick {
				*v = q
			} else {
				*v = d
			}
		}
	}
	def(&c.Dim, 2048, 256)
	def(&c.Block, 256, 32)
	def(&c.MaxThreads, runtime.GOMAXPROCS(0), 8)
	def(&c.SortKeys, 4<<20, 1<<15)
	def(&c.QueensN, 13, 9)
	def(&c.StrassenDim, 2048, 256)
	def(&c.StrassenBlock, 256, 32)
	def(&c.SparseLUBlocks, 24, 6)
	def(&c.SparseLUBlock, 64, 8)
	def(&c.HeatBlocks, 16, 4)
	def(&c.HeatBlock, 64, 8)
	def(&c.HeatSweeps, 24, 4)
	def(&c.Contexts, 8, 4)
	if c.Provider == "" {
		c.Provider = "tuned"
	}
	return c
}

// ThreadSweep returns the thread counts of the paper's x-axes
// {1,2,4,8,12,16,24,32} clipped to max, always including max.
func ThreadSweep(max int) []int {
	candidates := []int{1, 2, 4, 8, 12, 16, 24, 32}
	var out []int
	for _, t := range candidates {
		if t < max {
			out = append(out, t)
		}
	}
	return append(out, max)
}

// BlockSweep returns the paper's Fig. 8 block sizes {32..2048} clipped
// so at least one block fits the matrix.
func BlockSweep(dim int) []int {
	var out []int
	for b := 32; b <= 2048 && b <= dim; b *= 2 {
		if dim%b == 0 {
			out = append(out, b)
		}
	}
	return out
}

// timeIt measures f once and returns seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// withProcs runs f with GOMAXPROCS set to n, restoring it afterwards, so
// thread sweeps measure real parallelism limits.
func withProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// Registry maps experiment IDs to their runners.
var Registry = map[string]func(Config) *Result{
	"fig08":                Fig08,
	"fig11":                Fig11,
	"fig12":                Fig12,
	"fig13":                Fig13,
	"fig14":                Fig14,
	"fig15":                Fig15,
	"fig16":                Fig16,
	"ablation-kernels":     AblationKernels,
	"ablation-locality":    AblationLocality,
	"ablation-models":      AblationModels,
	"ablation-multitenant": AblationMultitenant,
	"ablation-faults":      AblationFaults,
	"ablation-rename":      AblationRenaming,
	"ablation-sched":       AblationScheduler,
	"ablation-tracker":     AblationTracker,
	"ablation-regions":     AblationRegions,
	"ablation-throttle":    AblationThrottle,
	"ext-models":           ExtModels,
	"ext-qr":               ExtQR,
	"ext-sparselu":         ExtSparseLU,
	"ext-heat":             ExtHeat,
	"ext-bundle":           ExtBundle,
	"tune":                 Tune,
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
