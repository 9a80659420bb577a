package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/hypermatrix"
	"repro/internal/kernels"
	"repro/internal/linalg"
)

// choleskyTol bounds the element-wise difference between the runtime's
// factor and the sequential tiled factor.  Both apply the same kernels
// to every block in the same order, so the expected difference is 0;
// the bound only absorbs a kernel that is not bit-reproducible.
const choleskyTol = 1e-4

// cholesky factors a dense hyper-matrix with linalg.CholeskyDense on
// the Simd provider: the paper's headline program (Figs. 8/11).
type cholesky struct {
	n, m     int
	pristine *hypermatrix.Matrix // the generated SPD input
	work     *hypermatrix.Matrix // factored in place by the runtime
	seq      *hypermatrix.Matrix // factored in place by seqSolve
	ref      *hypermatrix.Matrix // the sequential factor
	scratch  *kernels.Scratch
	al       *linalg.Algos
	ctx      *core.Context
}

func newCholesky(seed int64, dim, block int) *cholesky {
	n := dim / block
	c := &cholesky{n: n, m: block, scratch: kernels.NewScratch()}
	c.pristine = hypermatrix.FromFlat(kernels.GenSPD(dim, seed), n, block)
	c.work = c.pristine.Clone()
	c.seq = c.pristine.Clone()
	c.ref = c.pristine.Clone()
	tiledCholesky(c.ref, c.scratch)
	return c
}

func (c *cholesky) bind(ctx *core.Context) {
	c.ctx = ctx
	c.al = linalg.NewOn(ctx, kernels.Simd, c.m)
}

func copyMatrix(dst, src *hypermatrix.Matrix) {
	for i := range src.Blocks {
		for j := range src.Blocks[i] {
			copy(dst.Blocks[i][j], src.Blocks[i][j])
		}
	}
}

func (c *cholesky) reset() { copyMatrix(c.work, c.pristine) }

func (c *cholesky) solve(sp *spans) error {
	t0 := time.Now()
	c.al.CholeskyDense(c.work)
	t1 := time.Now()
	err := c.ctx.Barrier()
	sp.gen, sp.barrier = t1.Sub(t0), time.Since(t1)
	return err
}

// check compares the lower triangle of the factor block by block.
func (c *cholesky) check() error {
	m := c.m
	for i := 0; i < c.n; i++ {
		for j := 0; j <= i; j++ {
			var d float64
			if i == j {
				d = kernels.LowerMaxAbsDiff(c.work.Block(i, j), c.ref.Block(i, j), m)
			} else {
				d = kernels.MaxAbsDiff(c.work.Block(i, j), c.ref.Block(i, j))
			}
			if !(d <= choleskyTol) {
				return fmt.Errorf("cholesky block (%d,%d) differs from the sequential factor by %g (tolerance %g)", i, j, d, choleskyTol)
			}
		}
	}
	return nil
}

func (c *cholesky) corrupt() { c.work.Block(c.n-1, 0)[0] += 1 }

func (c *cholesky) seqSolve() time.Duration {
	copyMatrix(c.seq, c.pristine)
	t0 := time.Now()
	tiledCholesky(c.seq, c.scratch)
	return time.Since(t0)
}

// Cholesky task kinds, in the order of choleskyKinds.
const (
	kindPotrf = iota
	kindTrsm
	kindSyrk
	kindGemm
)

// choleskyTasks calls task for every task CholeskyDense submits on a,
// in submission order, with the blocks the task reads (in1, in2; nil
// when unused) and the block it updates (inout).
func choleskyTasks(a *hypermatrix.Matrix, task func(kind int, in1, in2, inout []float32)) {
	n := a.N
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			for i := j + 1; i < n; i++ {
				task(kindGemm, a.Block(i, k), a.Block(j, k), a.Block(i, j))
			}
		}
		for i := 0; i < j; i++ {
			task(kindSyrk, a.Block(j, i), nil, a.Block(j, j))
		}
		task(kindPotrf, nil, nil, a.Block(j, j))
		for i := j + 1; i < n; i++ {
			task(kindTrsm, a.Block(j, j), nil, a.Block(i, j))
		}
	}
}

// runKernel calls the Simd kernel of a Cholesky task kind on m×m
// blocks, as the task's body does.
func runKernel(kind int, s *kernels.Scratch, in1, in2, inout []float32, m int) {
	p := kernels.Simd
	switch kind {
	case kindPotrf:
		p.Potrf(inout, m)
	case kindTrsm:
		p.Trsm(in1, inout, m)
	case kindSyrk:
		p.SyrkS(s, in1, inout, m)
	case kindGemm:
		p.GemmNTS(s, in1, in2, inout, m)
	}
}

// tiledCholesky is the sequential program CholeskyDense submits, with
// each task called directly on one thread with the same provider.
func tiledCholesky(a *hypermatrix.Matrix, s *kernels.Scratch) {
	choleskyTasks(a, func(kind int, in1, in2, inout []float32) { runKernel(kind, s, in1, in2, inout, a.M) })
}

// stream lists CholeskyDense's parameters in submission order.
func (c *cholesky) stream() [][]access {
	var s [][]access
	choleskyTasks(c.work, func(_ int, in1, in2, inout []float32) {
		var t []access
		for _, b := range [][]float32{in1, in2} {
			if b != nil {
				t = append(t, access{data: b, mode: deps.ModeIn})
			}
		}
		s = append(s, append(t, access{data: inout, mode: deps.ModeInOut}))
	})
	return s
}

func (c *cholesky) kinds() []kernelKind { return choleskyKinds }

func (c *cholesky) rate() rate {
	return rate{name: "gflops", unit: "Gflop/s", perSolve: kernels.CholeskyFlops(c.n*c.m) / 1e9}
}
