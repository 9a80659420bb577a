// Package linalg implements every linear-algebra workload of the paper's
// evaluation as SMPSs task programs over the core runtime:
//
//   - dense hyper-matrix multiplication (Fig. 1)
//   - sparse hyper-matrix multiplication (Fig. 3)
//   - left-looking in-place Cholesky on hyper-matrices (Fig. 4)
//   - flat-matrix Cholesky and GEMM with on-demand block copies
//     (Fig. 9/10, evaluated in Fig. 11 and Fig. 12)
//   - blocked Strassen multiplication (§VI.C, Fig. 13)
//   - tiled LU without pivoting (§IV)
//
// Task bodies call the tile kernels of a kernels.Provider, mirroring how
// the paper implements tasks as calls into non-threaded Goto BLAS or MKL.
package linalg

import (
	"repro/internal/core"
	"repro/internal/hypermatrix"
	"repro/internal/kernels"
)

// kernelScratch keys each worker's packing buffers for providers with
// scratch-aware kernels (kernels.Simd, kernels.Tuned): every worker
// grows its own panel arena once and reuses it across all tasks it
// executes, so the packed engine runs allocation- and
// synchronization-free inside the runtime.
var kernelScratch = core.NewLocalKey(func() any { return kernels.NewScratch() })

// scratchOf returns the executing worker's kernel scratch.
func scratchOf(a *core.Args) *kernels.Scratch {
	return a.Local(kernelScratch).(*kernels.Scratch)
}

// Algos bundles a submission context, a kernel provider and a block
// size, and owns the task definitions of Fig. 2 plus the block-copy
// tasks of Fig. 10.  It targets a core.Context so the same task
// programs drive both a private Runtime and one tenant of a shared
// multi-context pool.
type Algos struct {
	rt *core.Context
	p  kernels.Provider
	m  int

	scopy   *core.TaskDef // b := a            (whole-block copy)
	sgemmNN *core.TaskDef // c += a·b          (matrix multiplication)
	sgemmNT *core.TaskDef // c -= a·bᵀ         (Cholesky trailing update)
	ssyrk   *core.TaskDef // c -= a·aᵀ (lower)
	strsm   *core.TaskDef // b := b·Lᵀ⁻¹
	spotrf  *core.TaskDef // a := chol(a)
	smul    *core.TaskDef // c = a·b           (Strassen leaf)
	sadd    *core.TaskDef // c = a + b
	ssub    *core.TaskDef // c = a - b
	saddTo  *core.TaskDef // c += a
	ssubTo  *core.TaskDef // c -= a

	sgetrf  *core.TaskDef // a := lu(a)
	strsmLL *core.TaskDef // b := L⁻¹·b (unit lower)
	strsmRU *core.TaskDef // b := b·U⁻¹
	sgemmSB *core.TaskDef // c -= a·b

	getBlock *core.TaskDef // copy block out of an opaque flat matrix
	putBlock *core.TaskDef // copy block into an opaque flat matrix

	sgeqrt *core.TaskDef // tiled QR: factor diagonal tile     (qr.go)
	sunmqr *core.TaskDef // tiled QR: apply Qᵀ right of diag
	stsqrt *core.TaskDef // tiled QR: couple triangle + tile
	stsmqr *core.TaskDef // tiled QR: apply coupling to pairs
}

// New builds the task set for the given runtime, kernel provider and
// block size m.
func New(rt *core.Runtime, p kernels.Provider, m int) *Algos {
	return NewOn(rt.Context(), p, m)
}

// NewOn builds the task set against one context of a shared pool, the
// entry point multi-tenant clients use (one Algos per context; the
// single-submitter contract applies per context).
func NewOn(c *core.Context, p kernels.Provider, m int) *Algos {
	al := &Algos{rt: c, p: p, m: m}

	al.scopy = core.NewTaskDef("scopy_t", func(a *core.Args) {
		copy(a.F32(1), a.F32(0))
	})
	// The level-3 tasks (GEMM, SYRK, TRSM, POTRF) route through the
	// provider's scratch-aware variants when it has them, handing each
	// call the executing worker's packing buffers.
	al.sgemmNN = core.NewTaskDef("sgemm_t", func(a *core.Args) {
		if p.GemmNNS != nil {
			p.GemmNNS(scratchOf(a), a.F32(0), a.F32(1), a.F32(2), m)
			return
		}
		p.GemmNN(a.F32(0), a.F32(1), a.F32(2), m)
	})
	al.sgemmNT = core.NewTaskDef("sgemm_nt_t", func(a *core.Args) {
		if p.GemmNTS != nil {
			p.GemmNTS(scratchOf(a), a.F32(0), a.F32(1), a.F32(2), m)
			return
		}
		p.GemmNT(a.F32(0), a.F32(1), a.F32(2), m)
	})
	al.ssyrk = core.NewTaskDef("ssyrk_t", func(a *core.Args) {
		if p.SyrkS != nil {
			p.SyrkS(scratchOf(a), a.F32(0), a.F32(1), m)
			return
		}
		p.Syrk(a.F32(0), a.F32(1), m)
	})
	al.strsm = core.NewTaskDef("strsm_t", func(a *core.Args) {
		if p.TrsmS != nil {
			p.TrsmS(scratchOf(a), a.F32(0), a.F32(1), m)
			return
		}
		p.Trsm(a.F32(0), a.F32(1), m)
	})
	// spotrf carries the highpriority clause: the diagonal factorization
	// is on the critical path, and scheduling it as soon as it is ready
	// unlocks a whole column of trsm tasks (paper §II/§III).
	al.spotrf = core.NewHighPriorityTaskDef("spotrf_t", func(a *core.Args) {
		ok := false
		if p.PotrfS != nil {
			ok = p.PotrfS(scratchOf(a), a.F32(0), m)
		} else {
			ok = p.Potrf(a.F32(0), m)
		}
		if !ok {
			panic("spotrf_t: block not positive definite")
		}
	})
	al.smul = core.NewTaskDef("smul_t", func(a *core.Args) {
		c := a.F32(2)
		for i := range c {
			c[i] = 0
		}
		if p.GemmNNS != nil {
			p.GemmNNS(scratchOf(a), a.F32(0), a.F32(1), c, m)
			return
		}
		p.GemmNN(a.F32(0), a.F32(1), c, m)
	})
	al.sadd = core.NewTaskDef("sadd_t", func(a *core.Args) {
		p.Add(a.F32(0), a.F32(1), a.F32(2), m)
	})
	al.ssub = core.NewTaskDef("ssub_t", func(a *core.Args) {
		p.Sub(a.F32(0), a.F32(1), a.F32(2), m)
	})
	al.saddTo = core.NewTaskDef("sadd_to_t", func(a *core.Args) {
		src, dst := a.F32(0), a.F32(1)
		for i := range dst {
			dst[i] += src[i]
		}
	})
	al.ssubTo = core.NewTaskDef("ssub_to_t", func(a *core.Args) {
		src, dst := a.F32(0), a.F32(1)
		for i := range dst {
			dst[i] -= src[i]
		}
	})

	al.sgetrf = core.NewHighPriorityTaskDef("sgetrf_t", func(a *core.Args) {
		if !kernels.LUBlock(a.F32(0), m) {
			panic("sgetrf_t: zero pivot")
		}
	})
	al.strsmLL = core.NewTaskDef("strsm_ll_t", func(a *core.Args) {
		kernels.TrsmLLUnit(a.F32(0), a.F32(1), m)
	})
	al.strsmRU = core.NewTaskDef("strsm_ru_t", func(a *core.Args) {
		if !kernels.TrsmRU(a.F32(0), a.F32(1), m) {
			panic("strsm_ru_t: zero pivot")
		}
	})
	al.sgemmSB = core.NewTaskDef("sgemm_sub_t", func(a *core.Args) {
		if p.GemmSubS != nil {
			p.GemmSubS(scratchOf(a), a.F32(0), a.F32(1), a.F32(2), m)
			return
		}
		p.GemmSub(a.F32(0), a.F32(1), a.F32(2), m)
	})

	// The flat matrix is always passed to these tasks as an opaque
	// pointer, exactly like the void* parameter of Fig. 10: it carries
	// no dependencies; ordering comes from the block parameter.
	al.getBlock = core.NewTaskDef("get_block", func(a *core.Args) {
		flat := a.Opaque(0).([]float32)
		dim := a.Int(1)
		i, j := a.Int(2), a.Int(3)
		hypermatrix.CopyBlockFromFlat(flat, dim, i, j, m, a.F32(4))
	})
	al.putBlock = core.NewTaskDef("put_block", func(a *core.Args) {
		flat := a.Opaque(0).([]float32)
		dim := a.Int(1)
		i, j := a.Int(2), a.Int(3)
		hypermatrix.CopyBlockToFlat(a.F32(4), flat, dim, i, j, m)
	})
	al.initQR()
	return al
}

// ResetFrom submits one scopy task per block position, rewriting every
// block of dst (output mode) from the pristine source src.  Both
// matrices must have the same shape with all blocks present.
//
// Pipelined with a factorization — reset, factor, reset, factor —
// without intermediate barriers, each reset's output write arrives
// while consumers of the previous round's version may still be pending,
// which is exactly the version-churn pattern the renaming engine (and
// its recycling pool) exists for: the write renames instead of waiting,
// and with pooling the superseded round's storage is recycled into the
// next round's renames.  The ablation-rename experiment is built on it.
func (al *Algos) ResetFrom(dst, src *hypermatrix.Matrix) {
	b := al.rt.NewBatch()
	for i := 0; i < dst.N; i++ {
		for j := 0; j < dst.N; j++ {
			b.Add(al.scopy, core.In(src.Block(i, j)), core.Out(dst.Block(i, j)))
		}
	}
	flush(b)
}

// Context returns the submission context the task set targets.
func (al *Algos) Context() *core.Context { return al.rt }

// submit forwards one task invocation to the context.  Submission can
// only fail on a closed context — programmer misuse the pre-context API
// surfaced as a panic — so keep failing loudly rather than silently
// computing nothing.
func (al *Algos) submit(def *core.TaskDef, args ...core.Arg) {
	if err := al.rt.Submit(def, args...); err != nil {
		panic(err)
	}
}

// flush submits a batch with the same loud-failure contract as submit.
func flush(b *core.Batch) {
	if err := b.Submit(); err != nil {
		panic(err)
	}
}

// BlockSize returns the block dimension m.
func (al *Algos) BlockSize() int { return al.m }

// Provider returns the kernel provider.
func (al *Algos) Provider() kernels.Provider { return al.p }
