// Package kernels provides the single-precision tile kernels that play
// the role of the non-threaded Goto BLAS 1.20 and Intel MKL 9.1 libraries
// the paper uses as task bodies (§VI: "we have implemented the tasks
// using highly tuned BLAS libraries").
//
// Blocks are dense M×M row-major []float32 slices.  Four providers are
// offered so every "SMPSs + Goto tiles" vs "SMPSs + MKL tiles" series
// pair in the paper's figures has an analogue, plus genuinely tuned
// libraries in the role the paper's "highly tuned BLAS" actually played:
//
//   - Simd: the packed engine driven by AVX2/FMA assembly micro-kernels
//     (simd.go), selected by CPUID feature detection at init, with the
//     scalar engine as bit-compatible fallback on machines or builds
//     (`noasm` tag) without them.
//   - Tuned: the packed, register-tiled micro-kernel engine (engine.go,
//     tuned.go) — panel packing, an mr×nr register accumulator tile,
//     cache-depth k-chunking, and a crossover to streaming loops on
//     small blocks, all tunable via a measured machine profile
//     (profile.go, `smpssbench -tune`).
//   - Fast: register-blocked, vectorization-friendly loop orders (the
//     stand-in for Goto BLAS).
//   - Ref: straightforward textbook loops (the stand-in for MKL 9.1 in
//     the relative sense that it is the second, somewhat slower
//     provider).
//
// The package also contains flat-matrix sequential algorithms (GEMM,
// Cholesky, LU) used for verification and as sequential baselines.
package kernels

import "math"

// Provider is one implementation of the tile-kernel set.  All kernels
// operate on M×M row-major blocks.
type Provider struct {
	// Name labels benchmark series ("tuned" / "goto" / "mkl").
	Name string
	// GemmNN computes C += A·B.
	GemmNN func(a, b, c []float32, m int)
	// GemmNT computes C -= A·Bᵀ (the trailing update of Cholesky).
	GemmNT func(a, b, c []float32, m int)
	// Syrk computes C -= A·Aᵀ on the lower triangle of C.
	Syrk func(a, c []float32, m int)
	// Trsm solves X·Lᵀ = B in place of B, with L lower-triangular.
	Trsm func(l, b []float32, m int)
	// Potrf factors the lower triangle of A in place (A = L·Lᵀ),
	// returning false if A is not positive definite.
	Potrf func(a []float32, m int) bool
	// GemmSub computes C -= A·B (the trailing update of tiled LU).
	GemmSub func(a, b, c []float32, m int)
	// Add computes C = A + B; Sub computes C = A - B (Strassen).
	Add func(a, b, c []float32, m int)
	Sub func(a, b, c []float32, m int)
	// Gemv computes y -= A·x and Trsv solves L·z = b in place of b
	// (forward substitution) — the block-vector kernels of the
	// post-Cholesky solve path (§VII.D), routed through the provider so
	// kernel work reaches them too.
	Gemv func(a, x, y []float32, m int)
	Trsv func(l, b []float32, m int)

	// GemmNNS, GemmNTS, SyrkS, GemmSubS, TrsmS and PotrfS are
	// scratch-aware variants, non-nil only for providers that pack
	// (Simd, Tuned).  The runtime path calls them with a per-worker
	// Scratch (keyed off core's Args.Worker()) so packing buffers are
	// reused without synchronization; the plain entry points above
	// borrow from the shared scratch pool instead.
	GemmNNS  func(s *Scratch, a, b, c []float32, m int)
	GemmNTS  func(s *Scratch, a, b, c []float32, m int)
	SyrkS    func(s *Scratch, a, c []float32, m int)
	GemmSubS func(s *Scratch, a, b, c []float32, m int)
	TrsmS    func(s *Scratch, l, b []float32, m int)
	PotrfS   func(s *Scratch, a []float32, m int) bool
}

// Fast is the loop-tuned provider (the "Goto BLAS" stand-in).
var Fast = Provider{
	Name:    "goto",
	GemmNN:  gemmNNFast,
	GemmNT:  gemmNTFast,
	Syrk:    syrkFast,
	Trsm:    trsmFast,
	Potrf:   potrf,
	GemmSub: GemmSubNN,
	Add:     addFast,
	Sub:     subFast,
	Gemv:    gemvFast,
	Trsv:    trsvFast,
}

// Ref is the straightforward provider (the "MKL" stand-in).
var Ref = Provider{
	Name:    "mkl",
	GemmNN:  gemmNNRef,
	GemmNT:  gemmNTRef,
	Syrk:    syrkRef,
	Trsm:    trsmRef,
	Potrf:   potrf,
	GemmSub: gemmSubRef,
	Add:     addRef,
	Sub:     subRef,
	Gemv:    gemvRef,
	Trsv:    trsvRef,
}

// Providers lists the kernel providers in plot order: the SIMD engine,
// the scalar engine, then the paper's goto/mkl stand-in pair.
var Providers = []Provider{Simd, Tuned, Fast, Ref}

// ByName returns the provider with the given name, defaulting to Tuned.
func ByName(name string) Provider {
	for _, p := range Providers {
		if p.Name == name {
			return p
		}
	}
	return Tuned
}

// Names returns the provider names in plot order, for flag validation
// and usage strings.
func Names() []string {
	names := make([]string, len(Providers))
	for i, p := range Providers {
		names[i] = p.Name
	}
	return names
}

// gemmNNRef: C += A·B, textbook i-j-k order (strided B access).
func gemmNNRef(a, b, c []float32, m int) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var s float32
			for k := 0; k < m; k++ {
				s += a[i*m+k] * b[k*m+j]
			}
			c[i*m+j] += s
		}
	}
}

// gemmNNFast: C += A·B in i-k-j order: the inner loop streams rows of B
// and C with unit stride.  Deliberately no zero-skip on aik: dense
// inputs pay a mispredicted branch per trip to optimize a case only
// contrived inputs hit (structurally sparse matrices go through
// hypermatrix block sparsity instead, which skips whole absent blocks).
func gemmNNFast(a, b, c []float32, m int) {
	for i := 0; i < m; i++ {
		ci := c[i*m : i*m+m]
		for k := 0; k < m; k++ {
			aik := a[i*m+k]
			bk := b[k*m : k*m+m]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// gemmSubRef: C -= A·B, textbook i-j-k order.
func gemmSubRef(a, b, c []float32, m int) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var s float32
			for k := 0; k < m; k++ {
				s += a[i*m+k] * b[k*m+j]
			}
			c[i*m+j] -= s
		}
	}
}

// gemmNTRef: C -= A·Bᵀ, textbook order.
func gemmNTRef(a, b, c []float32, m int) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var s float32
			for k := 0; k < m; k++ {
				s += a[i*m+k] * b[j*m+k]
			}
			c[i*m+j] -= s
		}
	}
}

// gemmNTFast: C -= A·Bᵀ with 4-way unrolled dot products over contiguous
// rows of A and B.
func gemmNTFast(a, b, c []float32, m int) {
	for i := 0; i < m; i++ {
		ai := a[i*m : i*m+m]
		for j := 0; j < m; j++ {
			bj := b[j*m : j*m+m]
			var s0, s1, s2, s3 float32
			k := 0
			for ; k+3 < m; k += 4 {
				s0 += ai[k] * bj[k]
				s1 += ai[k+1] * bj[k+1]
				s2 += ai[k+2] * bj[k+2]
				s3 += ai[k+3] * bj[k+3]
			}
			for ; k < m; k++ {
				s0 += ai[k] * bj[k]
			}
			c[i*m+j] -= s0 + s1 + s2 + s3
		}
	}
}

// syrkRef: C -= A·Aᵀ on the lower triangle, textbook order.
func syrkRef(a, c []float32, m int) {
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			var s float32
			for k := 0; k < m; k++ {
				s += a[i*m+k] * a[j*m+k]
			}
			c[i*m+j] -= s
		}
	}
}

// syrkFast: C -= A·Aᵀ on the lower triangle, unrolled dot products.
func syrkFast(a, c []float32, m int) {
	for i := 0; i < m; i++ {
		ai := a[i*m : i*m+m]
		for j := 0; j <= i; j++ {
			aj := a[j*m : j*m+m]
			var s0, s1 float32
			k := 0
			for ; k+1 < m; k += 2 {
				s0 += ai[k] * aj[k]
				s1 += ai[k+1] * aj[k+1]
			}
			for ; k < m; k++ {
				s0 += ai[k] * aj[k]
			}
			c[i*m+j] -= s0 + s1
		}
	}
}

// trsmRef solves X·Lᵀ = B in place of B (right side, lower, transposed):
// row r of X satisfies x[r][c] = (b[r][c] - Σ_{k<c} x[r][k]·l[c][k]) / l[c][c].
func trsmRef(l, b []float32, m int) {
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			s := b[r*m+c]
			for k := 0; k < c; k++ {
				s -= b[r*m+k] * l[c*m+k]
			}
			b[r*m+c] = s / l[c*m+c]
		}
	}
}

// trsmFast is trsmRef with the dot product over the contiguous row
// prefixes unrolled.
func trsmFast(l, b []float32, m int) {
	for r := 0; r < m; r++ {
		br := b[r*m : r*m+m]
		for c := 0; c < m; c++ {
			lc := l[c*m : c*m+c]
			var s0, s1 float32
			k := 0
			for ; k+1 < c; k += 2 {
				s0 += br[k] * lc[k]
				s1 += br[k+1] * lc[k+1]
			}
			for ; k < c; k++ {
				s0 += br[k] * lc[k]
			}
			br[c] = (br[c] - s0 - s1) / l[c*m+c]
		}
	}
}

// potrf factors the lower triangle of A in place: A = L·Lᵀ.  It returns
// false if a non-positive pivot appears (A not positive definite).
func potrf(a []float32, m int) bool { return potrfStrided(a, m, m) }

// potrfStrided is potrf on the n×n leading block of a matrix with row
// stride lda: the packed engines' recursive POTRF uses it as its base
// case.  Only the lower triangle is read or written.
func potrfStrided(a []float32, lda, n int) bool {
	for k := 0; k < n; k++ {
		d := a[k*lda+k]
		if d <= 0 || math.IsNaN(float64(d)) {
			return false
		}
		d = float32(math.Sqrt(float64(d)))
		a[k*lda+k] = d
		inv := 1 / d
		for i := k + 1; i < n; i++ {
			a[i*lda+k] *= inv
		}
		for j := k + 1; j < n; j++ {
			ajk := a[j*lda+k]
			if ajk == 0 {
				continue
			}
			for i := j; i < n; i++ {
				a[i*lda+j] -= a[i*lda+k] * ajk
			}
		}
	}
	return true
}

func addRef(a, b, c []float32, m int) {
	for i := 0; i < m*m; i++ {
		c[i] = a[i] + b[i]
	}
}

func addFast(a, b, c []float32, m int) {
	n := m * m
	a, b, c = a[:n], b[:n], c[:n:n]
	for i := range c {
		c[i] = a[i] + b[i]
	}
}

func subRef(a, b, c []float32, m int) {
	for i := 0; i < m*m; i++ {
		c[i] = a[i] - b[i]
	}
}

func subFast(a, b, c []float32, m int) {
	n := m * m
	a, b, c = a[:n], b[:n], c[:n:n]
	for i := range c {
		c[i] = a[i] - b[i]
	}
}
