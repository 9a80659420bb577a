// Package repro_test holds the testing.B benchmark per paper figure
// (Fig. 5, 8, 11–16) plus ablation and runtime micro-benchmarks.  These
// run at a reduced scale suitable for `go test -bench=.`; the full
// parameter sweeps that regenerate each figure live in cmd/smpssbench
// (see EXPERIMENTS.md for recorded results).
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/cilkrt"
	"repro/internal/core"
	"repro/internal/forkjoin"
	"repro/internal/graph"
	"repro/internal/hypermatrix"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/omptask"
)

const (
	bDim   = 768 // bench matrix dimension
	bBlock = 128
	bKeys  = 1 << 20
	bN     = 12 // queens board
)

// reportGflops attaches a gflop/s metric to a benchmark.
func reportGflops(b *testing.B, flops float64) {
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

// BenchmarkFig05GraphBuild measures dependency analysis and graph
// construction alone: the 6×6 Cholesky graph of Fig. 5 (56 tasks), built
// with a single worker so nothing executes during submission.
func BenchmarkFig05GraphBuild(b *testing.B) {
	blk := 8
	spd := kernels.GenSPD(6*blk, 1)
	for i := 0; i < b.N; i++ {
		rec := &graph.Recorder{}
		rt := core.New(core.Config{Workers: 1, Recorder: rec})
		al := linalg.New(rt, kernels.Fast, blk)
		al.CholeskyDense(hypermatrix.FromFlat(spd, 6, blk))
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
		if rec.NumNodes() != 56 {
			b.Fatalf("graph has %d nodes, want 56", rec.NumNodes())
		}
	}
}

// BenchmarkFig08CholeskyBlock sweeps two representative block sizes of
// the Fig. 8 inverted-U (small = overhead-bound, large = starved).
func BenchmarkFig08CholeskyBlock(b *testing.B) {
	for _, blk := range []int{32, 128, 384} {
		if bDim%blk != 0 {
			continue
		}
		b.Run(sizeName(blk), func(b *testing.B) {
			spd := kernels.GenSPD(bDim, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := hypermatrix.FromFlat(spd, bDim/blk, blk)
				rt := core.New(core.Config{})
				al := linalg.New(rt, kernels.Fast, blk)
				b.StartTimer()
				al.CholeskyDense(h)
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
			reportGflops(b, kernels.CholeskyFlops(bDim))
		})
	}
}

// BenchmarkFig11CholeskySMPSs and BenchmarkFig11CholeskyForkJoin are the
// two model families of Fig. 11 at full machine width.
func BenchmarkFig11CholeskySMPSs(b *testing.B) {
	spd := kernels.GenSPD(bDim, 3)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := hypermatrix.FromFlat(spd, bDim/bBlock, bBlock)
		rt := core.New(core.Config{})
		al := linalg.New(rt, kernels.Fast, bBlock)
		b.StartTimer()
		al.CholeskyDense(h)
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportGflops(b, kernels.CholeskyFlops(bDim))
}

func BenchmarkFig11CholeskyForkJoin(b *testing.B) {
	spd := kernels.GenSPD(bDim, 3)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := append([]float32(nil), spd...)
		b.StartTimer()
		if !forkjoin.Cholesky(in, bDim, bBlock, 0, kernels.Fast) {
			b.Fatal("not positive definite")
		}
	}
	reportGflops(b, kernels.CholeskyFlops(bDim))
}

// BenchmarkFig12MatMul* compare the Fig. 12 models: SMPSs with on-demand
// block copies versus fork-join flat GEMM.
func BenchmarkFig12MatMulSMPSs(b *testing.B) {
	x := kernels.GenMatrix(bDim, 4)
	y := kernels.GenMatrix(bDim, 5)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := make([]float32, bDim*bDim)
		rt := core.New(core.Config{})
		al := linalg.New(rt, kernels.Fast, bBlock)
		b.StartTimer()
		al.MatMulFlat(x, y, c, bDim/bBlock)
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportGflops(b, kernels.GemmFlops(bDim))
}

func BenchmarkFig12MatMulForkJoin(b *testing.B) {
	x := kernels.GenMatrix(bDim, 4)
	y := kernels.GenMatrix(bDim, 5)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := make([]float32, bDim*bDim)
		b.StartTimer()
		forkjoin.Gemm(x, y, c, bDim, 0, kernels.Fast)
	}
	reportGflops(b, kernels.GemmFlops(bDim))
}

// Strassen benchmarks need a power-of-two block count.
const (
	sDim   = 1024
	sBlock = 128 // 8×8 blocks
)

// BenchmarkFig13Strassen is the renaming-intensive workload.
func BenchmarkFig13Strassen(b *testing.B) {
	n := sDim / sBlock
	x := kernels.GenMatrix(sDim, 6)
	y := kernels.GenMatrix(sDim, 7)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ah := hypermatrix.FromFlat(x, n, sBlock)
		bh := hypermatrix.FromFlat(y, n, sBlock)
		ch := hypermatrix.New(n, sBlock)
		rt := core.New(core.Config{})
		al := linalg.New(rt, kernels.Fast, sBlock)
		b.StartTimer()
		al.Strassen(ah, bh, ch)
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
	}
	reportGflops(b, kernels.StrassenFlops(sDim, sBlock))
}

func benchKeys() []int64 {
	rng := rand.New(rand.NewSource(8))
	keys := make([]int64, bKeys)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	return keys
}

// BenchmarkFig14Multisort* covers the four Fig. 14 implementations.
func BenchmarkFig14MultisortSeq(b *testing.B) {
	orig := benchKeys()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := append([]int64(nil), orig...)
		b.StartTimer()
		apps.MultisortSeq(d, apps.DefaultSortConfig)
	}
}

func BenchmarkFig14MultisortCilk(b *testing.B) {
	orig := benchKeys()
	rt := cilkrt.New(0)
	defer rt.Close()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := append([]int64(nil), orig...)
		b.StartTimer()
		apps.MultisortCilk(rt, d, apps.DefaultSortConfig)
	}
}

func BenchmarkFig14MultisortOMP(b *testing.B) {
	orig := benchKeys()
	rt := omptask.New(0)
	defer rt.Close()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := append([]int64(nil), orig...)
		b.StartTimer()
		apps.MultisortOMP(rt, d, apps.DefaultSortConfig)
	}
}

func BenchmarkFig14MultisortSMPSs(b *testing.B) {
	orig := benchKeys()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := append([]int64(nil), orig...)
		rt := core.New(core.Config{})
		b.StartTimer()
		if err := apps.MultisortSMPSs(rt.Context(), d, apps.DefaultSortConfig); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rt.Close()
		b.StartTimer()
	}
}

// BenchmarkFig15NQueens* covers the Fig. 15/16 implementations.
func BenchmarkFig15NQueensSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		apps.NQueensSeq(bN)
	}
}

func BenchmarkFig15NQueensCilk(b *testing.B) {
	rt := cilkrt.New(0)
	defer rt.Close()
	for i := 0; i < b.N; i++ {
		apps.NQueensCilk(rt, bN)
	}
}

func BenchmarkFig15NQueensOMP(b *testing.B) {
	rt := omptask.New(0)
	defer rt.Close()
	for i := 0; i < b.N; i++ {
		apps.NQueensOMP(rt, bN)
	}
}

func BenchmarkFig15NQueensSMPSs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := core.New(core.Config{})
		b.StartTimer()
		if _, err := apps.NQueensSMPSs(rt.Context(), bN); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rt.Close()
		b.StartTimer()
	}
}

// BenchmarkFig16NQueens1Thread* provide the one-thread baselines of the
// Fig. 16 self-relative comparison (divide the Fig. 15 benches by these).
func BenchmarkFig16NQueens1ThreadCilk(b *testing.B) {
	rt := cilkrt.New(1)
	defer rt.Close()
	for i := 0; i < b.N; i++ {
		apps.NQueensCilk(rt, bN)
	}
}

func BenchmarkFig16NQueens1ThreadOMP(b *testing.B) {
	rt := omptask.New(1)
	defer rt.Close()
	for i := 0; i < b.N; i++ {
		apps.NQueensOMP(rt, bN)
	}
}

func BenchmarkFig16NQueens1ThreadSMPSs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := core.New(core.Config{Workers: 1})
		b.StartTimer()
		if _, err := apps.NQueensSMPSs(rt.Context(), bN); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rt.Close()
		b.StartTimer()
	}
}

// BenchmarkAblationRenaming quantifies the renaming engine on Strassen.
func BenchmarkAblationRenaming(b *testing.B) {
	n := sDim / sBlock
	x := kernels.GenMatrix(sDim, 9)
	y := kernels.GenMatrix(sDim, 10)
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ah := hypermatrix.FromFlat(x, n, sBlock)
				bh := hypermatrix.FromFlat(y, n, sBlock)
				ch := hypermatrix.New(n, sBlock)
				rt := core.New(core.Config{DisableRenaming: disable})
				al := linalg.New(rt, kernels.Fast, sBlock)
				b.StartTimer()
				al.Strassen(ah, bh, ch)
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScheduler compares the locality policy against a
// global FIFO queue on the dense Cholesky.
func BenchmarkAblationScheduler(b *testing.B) {
	spd := kernels.GenSPD(bDim, 11)
	for _, kind := range []core.SchedulerKind{core.SchedLocality, core.SchedGlobalFIFO} {
		name := "locality"
		if kind == core.SchedGlobalFIFO {
			name = "global-fifo"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := hypermatrix.FromFlat(spd, bDim/bBlock, bBlock)
				rt := core.New(core.Config{Scheduler: kind})
				al := linalg.New(rt, kernels.Fast, bBlock)
				b.StartTimer()
				al.CholeskyDense(h)
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
			reportGflops(b, kernels.CholeskyFlops(bDim))
		})
	}
}

// BenchmarkAblationRegions compares region deps against whole-array deps
// on Multisort.
func BenchmarkAblationRegions(b *testing.B) {
	orig := benchKeys()
	for _, coarse := range []bool{false, true} {
		name := "regions"
		if coarse {
			name = "whole-array"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := append([]int64(nil), orig...)
				rt := core.New(core.Config{})
				b.StartTimer()
				var err error
				if coarse {
					err = apps.MultisortSMPSsCoarse(rt.Context(), d, apps.DefaultSortConfig)
				} else {
					err = apps.MultisortSMPSs(rt.Context(), d, apps.DefaultSortConfig)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rt.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSubmitOverhead measures the per-task runtime cost (dependency
// analysis + graph + scheduling) with empty task bodies on an inout
// chain — the paper's motivation for ~250µs task granularity (§I).
func BenchmarkSubmitOverhead(b *testing.B) {
	empty := core.NewTaskDef("empty", func(a *core.Args) {})
	x := make([]float32, 1)
	rt := core.New(core.Config{Workers: 2, GraphLimit: 4096})
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(empty, core.InOut(x))
	}
	if err := rt.Barrier(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIndependentTaskThroughput measures end-to-end task throughput
// with independent empty tasks across all workers.
func BenchmarkIndependentTaskThroughput(b *testing.B) {
	empty := core.NewTaskDef("empty2", func(a *core.Args) {})
	rt := core.New(core.Config{GraphLimit: 8192})
	defer rt.Close()
	cells := make([][]float32, 64)
	for i := range cells {
		cells[i] = make([]float32, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(empty, core.InOut(cells[i%len(cells)]))
	}
	if err := rt.Barrier(); err != nil {
		b.Fatal(err)
	}
}

func sizeName(n int) string {
	digits := "0123456789"
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return string(buf[i:])
}
