package kernels

// The Tuned provider: the packed engine (engine.go) driven by scalar
// micro-kernels — register tiles the Go compiler keeps in scalar XMM
// registers, for builds and machines without the AVX2/FMA assembly
// family of the Simd provider.
//
// The streaming loops of the Fast provider read ~3 floats from cache
// per multiply-add; the engine instead packs panels so every loaded
// float feeds mr (or nr) multiply-adds (see engine.go).  The tile
// shape is chosen for the Go compiler's scalar code: gc does not
// auto-vectorize, so the shape must fit the 16 scalar registers of
// amd64.  Measured on the PR 3 container, 4×2 (8 accumulators + 6
// operand temporaries, bounds-check-free, k unrolled ×4) reaches ~8.4
// Gflop/s at block 128 where 4×4 (16 accumulators, spilled) manages
// ~4.0 and the Fast axpy loop ~3.7.  The 4×4 and 2×4 shapes stay in
// the family so `smpssbench -tune` re-runs that shootout on the host
// instead of trusting one container's numbers.
//
// Packing costs O(m²) traffic against the O(m³) work it accelerates,
// so below the crossover the engine delegates to the Fast streaming
// loops.  Shape, kc depth and crossover are engine parameters
// (kernels.Params), overridable by a measured machine profile.

// tunedDefaults is the blocking the PR 3 shootout chose, the
// configuration used when no machine profile has been applied.
var tunedDefaults = Params{MR: 4, NR: 2, KC: 256, Crossover: 16}

// scalarKernels is the scalar micro-kernel family.
var scalarKernels = []tileKernel{
	{mr: 4, nr: 2, kern: tile4x2},
	{mr: 4, nr: 4, kern: tile4x4},
	{mr: 2, nr: 4, kern: tile2x4},
}

// tunedEngine drives the scalar family; it doubles as the Simd
// provider's bit-compatible portable fallback.
var tunedEngine = newEngine("tuned", scalarKernels, tunedDefaults)

// Tuned is the packed scalar micro-kernel provider (see engineProvider
// for which kernels the engine runs).
var Tuned = engineProvider("tuned", tunedEngine)

// The Scratch methods below keep the pre-parameterization API: a
// per-worker scratch driving the scalar engine directly.

// GemmNN computes C += A·B through the packed scalar engine using this
// scratch's buffers.  The runtime path calls it with the executing
// worker's scratch so packing reuses warm per-worker storage.
func (s *Scratch) GemmNN(a, b, c []float32, m int) { tunedEngine.GemmNNS(s, a, b, c, m) }

// GemmNT computes C -= A·Bᵀ through the packed scalar engine.
func (s *Scratch) GemmNT(a, b, c []float32, m int) { tunedEngine.GemmNTS(s, a, b, c, m) }

// Syrk computes C -= A·Aᵀ on the lower triangle through the packed
// scalar engine, skipping tiles strictly above the diagonal.
func (s *Scratch) Syrk(a, c []float32, m int) { tunedEngine.SyrkS(s, a, c, m) }

// GemmSub computes C -= A·B through the packed scalar engine (the
// trailing update of tiled LU).
func (s *Scratch) GemmSub(a, b, c []float32, m int) { tunedEngine.GemmSubS(s, a, b, c, m) }

// tile4x2 is the scalar engine's primary kernel: a 4×2 accumulator
// tile C[0:4, 0:2] ±= Ap·Bp over kk packed steps, the k loop unrolled
// four times.  Both panels advance by re-slicing under an explicit len
// guard so every load sits at a constant offset the compiler proves in
// bounds — the bounds-check-free form is worth ~1.5× over indexed
// access here.  The k loop is shape-free — padding guarantees full
// panels — so the tile is written back whole.
func tile4x2(ap, bp, c []float32, ldc, kk int, sub bool) {
	const mr, nr = 4, 2
	var c00, c01, c10, c11, c20, c21, c30, c31 float32
	ap = ap[: kk*mr : kk*mr]
	bp = bp[: kk*nr : kk*nr]
	for len(ap) >= 4*mr && len(bp) >= 4*nr {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[8], ap[9], ap[10], ap[11]
		b0, b1 = bp[4], bp[5]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[12], ap[13], ap[14], ap[15]
		b0, b1 = bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[4*mr:]
		bp = bp[4*nr:]
	}
	for len(ap) >= mr && len(bp) >= nr { // kk % 4 tail
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[mr:]
		bp = bp[nr:]
	}
	if sub {
		c00, c01 = -c00, -c01
		c10, c11 = -c10, -c11
		c20, c21 = -c20, -c21
		c30, c31 = -c30, -c31
	}
	c[0] += c00
	c[1] += c01
	c[ldc+0] += c10
	c[ldc+1] += c11
	c[2*ldc+0] += c20
	c[2*ldc+1] += c21
	c[3*ldc+0] += c30
	c[3*ldc+1] += c31
}

// tile4x4 is the 16-accumulator scalar shape: on amd64 it spills past
// the 16 scalar registers and loses to 4×2, but wider machines (or
// future compilers) may disagree — the tuner decides.
func tile4x4(ap, bp, c []float32, ldc, kk int, sub bool) {
	const mr, nr = 4, 4
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
	)
	ap = ap[: kk*mr : kk*mr]
	bp = bp[: kk*nr : kk*nr]
	for len(ap) >= mr && len(bp) >= nr {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		ap = ap[mr:]
		bp = bp[nr:]
	}
	if sub {
		c00, c01, c02, c03 = -c00, -c01, -c02, -c03
		c10, c11, c12, c13 = -c10, -c11, -c12, -c13
		c20, c21, c22, c23 = -c20, -c21, -c22, -c23
		c30, c31, c32, c33 = -c30, -c31, -c32, -c33
	}
	c[0] += c00
	c[1] += c01
	c[2] += c02
	c[3] += c03
	c[ldc+0] += c10
	c[ldc+1] += c11
	c[ldc+2] += c12
	c[ldc+3] += c13
	c[2*ldc+0] += c20
	c[2*ldc+1] += c21
	c[2*ldc+2] += c22
	c[2*ldc+3] += c23
	c[3*ldc+0] += c30
	c[3*ldc+1] += c31
	c[3*ldc+2] += c32
	c[3*ldc+3] += c33
}

// tile2x4 is the transposed 8-accumulator shape — same register budget
// as 4×2 with the wide side on B.
func tile2x4(ap, bp, c []float32, ldc, kk int, sub bool) {
	const mr, nr = 2, 4
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
	)
	ap = ap[: kk*mr : kk*mr]
	bp = bp[: kk*nr : kk*nr]
	for len(ap) >= 2*mr && len(bp) >= 2*nr {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = ap[2], ap[3]
		b0, b1, b2, b3 = bp[4], bp[5], bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[2*mr:]
		bp = bp[2*nr:]
	}
	for len(ap) >= mr && len(bp) >= nr { // kk % 2 tail
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[mr:]
		bp = bp[nr:]
	}
	if sub {
		c00, c01, c02, c03 = -c00, -c01, -c02, -c03
		c10, c11, c12, c13 = -c10, -c11, -c12, -c13
	}
	c[0] += c00
	c[1] += c01
	c[2] += c02
	c[3] += c03
	c[ldc+0] += c10
	c[ldc+1] += c11
	c[ldc+2] += c12
	c[ldc+3] += c13
}
