package kernels

// The packed micro-kernel engine, parameterized over its blocking
// parameters.  PR 3 introduced the engine with the tile shape and
// k-chunk depth as compile-time constants chosen by a hand-run shootout
// on one container; this file is the same Goto/BLIS decomposition with
// the shape turned into data so a machine profile (profile.go, measured
// by `smpssbench -tune`) can re-block the engine for the host it is
// actually running on.
//
// An engine is a family of register-tile micro-kernels (each a fixed
// mr×nr shape — the shape is the register allocation, so it cannot be a
// runtime loop bound inside the kernel) plus a current configuration:
// which family member to drive, how deep to chunk k (kc), and below
// which block size to delegate to the streaming loops (crossover).
// The driver loop, the packing routines and the edge handling are
// generic over (mr, nr, kc); only the innermost kernel is shape-bound.
// One strided driver loop (pass.gemm) serves GEMM and SYRK directly and
// the recursive TRSM and POTRF through their off-diagonal updates.
//
// Two engines exist: the scalar engine behind the Tuned provider
// (tuned.go) and the AVX2/FMA assembly engine behind the Simd provider
// (simd.go), which degrades to the scalar family when the hardware or
// build lacks the assembly kernels.

import (
	"fmt"
	"sync/atomic"
)

// Params are the tunable blocking parameters of a packed engine: the
// register tile shape (MR×NR), the k-chunk depth KC, and the Crossover
// block size below which the engine delegates to the streaming loops.
type Params struct {
	MR        int `json:"mr"`
	NR        int `json:"nr"`
	KC        int `json:"kc"`
	Crossover int `json:"crossover"`
}

// tileFunc is one register-tile micro-kernel: C ±= Ap·Bp over kk packed
// steps for a full mr×nr tile.  Ap is an mr×kk column-major panel
// (ap[k*mr+r]), Bp a kk×nr row-major panel (bp[k*nr+c]); both are fully
// padded, so the k loop never branches on shape.  The tile is written
// directly to c with row stride ldc — add when !sub, subtract when sub.
type tileFunc func(ap, bp, c []float32, ldc, kk int, sub bool)

// tileKernel binds a micro-kernel to its shape.
type tileKernel struct {
	mr, nr int
	kern   tileFunc
}

// engineConfig is one immutable engine configuration; the engine swaps
// whole configurations atomically so a Configure racing with in-flight
// kernels is safe (each kernel call reads the pointer once).
type engineConfig struct {
	kern      tileKernel
	kc        int
	crossover int
}

// engine drives the packed decomposition for one micro-kernel family.
type engine struct {
	name   string
	family []tileKernel
	cfg    atomic.Pointer[engineConfig]
}

// newEngine builds an engine over the family, configured to defaults.
func newEngine(name string, family []tileKernel, def Params) *engine {
	e := &engine{name: name, family: family}
	if err := e.configure(def); err != nil {
		panic("kernels: bad default engine params: " + err.Error())
	}
	return e
}

// shapes returns the family's candidate (MR, NR) shapes with the
// engine's current KC/Crossover filled in, the tuner's sweep axis.
func (e *engine) shapes() []Params {
	cur := e.cfg.Load()
	out := make([]Params, len(e.family))
	for i, k := range e.family {
		out[i] = Params{MR: k.mr, NR: k.nr, KC: cur.kc, Crossover: cur.crossover}
	}
	return out
}

// params returns the current configuration.
func (e *engine) params() Params {
	c := e.cfg.Load()
	return Params{MR: c.kern.mr, NR: c.kern.nr, KC: c.kc, Crossover: c.crossover}
}

// configure installs p, validating that the shape names an implemented
// family member and the depths are sane.
func (e *engine) configure(p Params) error {
	if p.KC < 1 {
		return fmt.Errorf("kernels: engine %s: kc %d < 1", e.name, p.KC)
	}
	if p.Crossover < 0 {
		return fmt.Errorf("kernels: engine %s: crossover %d < 0", e.name, p.Crossover)
	}
	for _, k := range e.family {
		if k.mr == p.MR && k.nr == p.NR {
			e.cfg.Store(&engineConfig{kern: k, kc: p.KC, crossover: p.Crossover})
			return nil
		}
	}
	return fmt.Errorf("kernels: engine %s: no %d×%d micro-kernel (shapes: %v)",
		e.name, p.MR, p.NR, e.shapeList())
}

// setFamily swaps the micro-kernel family (the Simd engine's forced
// fallback uses it) and re-blocks to the given defaults.
func (e *engine) setFamily(family []tileKernel, def Params) {
	e.family = family
	if err := e.configure(def); err != nil {
		panic("kernels: bad engine family swap: " + err.Error())
	}
}

func (e *engine) shapeList() []string {
	var out []string
	for _, k := range e.family {
		out = append(out, fmt.Sprintf("%dx%d", k.mr, k.nr))
	}
	return out
}

// engines indexes the tunable engine providers by provider name.
var engines = map[string]*engine{}

// EngineProviders lists the provider names backed by a parameterized
// packed engine, in plot order.
func EngineProviders() []string {
	var out []string
	for _, p := range Providers {
		if engines[p.Name] != nil {
			out = append(out, p.Name)
		}
	}
	return out
}

// EngineShapes returns the named engine provider's candidate tile
// shapes (the implemented micro-kernels), each with the current
// KC/Crossover.  Nil for providers without an engine.
func EngineShapes(provider string) []Params {
	e := engines[provider]
	if e == nil {
		return nil
	}
	return e.shapes()
}

// EngineParams returns the named engine provider's current blocking
// parameters.
func EngineParams(provider string) (Params, bool) {
	e := engines[provider]
	if e == nil {
		return Params{}, false
	}
	return e.params(), true
}

// ConfigureEngine installs blocking parameters on the named engine
// provider.  The shape must name an implemented micro-kernel of that
// engine's family (see EngineShapes).
func ConfigureEngine(provider string, p Params) error {
	e := engines[provider]
	if e == nil {
		return fmt.Errorf("kernels: provider %q has no tunable engine (have: %v)",
			provider, EngineProviders())
	}
	return e.configure(p)
}

// --- provider entry points -------------------------------------------

// The entry points below are bound into Provider structs as method
// values (engineProvider).  Below the crossover each delegates to the
// Fast provider's streaming loop; above it the plain entry points borrow
// a pooled scratch and the S variants take the executing worker's.

func (e *engine) GemmNN(a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNNFast(a, b, c, m)
		return
	}
	s := AcquireScratch()
	e.GemmNNS(s, a, b, c, m)
	ReleaseScratch(s)
}

func (e *engine) GemmNT(a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNTFast(a, b, c, m)
		return
	}
	s := AcquireScratch()
	e.GemmNTS(s, a, b, c, m)
	ReleaseScratch(s)
}

func (e *engine) Syrk(a, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		syrkFast(a, c, m)
		return
	}
	s := AcquireScratch()
	e.SyrkS(s, a, c, m)
	ReleaseScratch(s)
}

func (e *engine) GemmSub(a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		GemmSubNN(a, b, c, m)
		return
	}
	s := AcquireScratch()
	e.GemmSubS(s, a, b, c, m)
	ReleaseScratch(s)
}

func (e *engine) Trsm(l, b []float32, m int) {
	if m < e.cfg.Load().crossover {
		trsmFast(l, b, m)
		return
	}
	s := AcquireScratch()
	e.TrsmS(s, l, b, m)
	ReleaseScratch(s)
}

func (e *engine) Potrf(a []float32, m int) bool {
	if m < e.cfg.Load().crossover {
		return potrf(a, m)
	}
	s := AcquireScratch()
	ok := e.PotrfS(s, a, m)
	ReleaseScratch(s)
	return ok
}

func (e *engine) GemmNNS(s *Scratch, a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNNFast(a, b, c, m)
		return
	}
	p := e.begin(s, m, m, 0)
	p.gemm(a, m, b, m, c, m, m, m, m, false, false, false)
}

func (e *engine) GemmNTS(s *Scratch, a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNTFast(a, b, c, m)
		return
	}
	p := e.begin(s, m, m, 0)
	p.gemm(a, m, b, m, c, m, m, m, m, true, true, false)
}

func (e *engine) SyrkS(s *Scratch, a, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		syrkFast(a, c, m)
		return
	}
	p := e.begin(s, m, m, 0)
	p.gemm(a, m, a, m, c, m, m, m, m, true, true, true)
}

func (e *engine) GemmSubS(s *Scratch, a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		GemmSubNN(a, b, c, m)
		return
	}
	p := e.begin(s, m, m, 0)
	p.gemm(a, m, b, m, c, m, m, m, m, false, true, false)
}

func (e *engine) TrsmS(s *Scratch, l, b []float32, m int) {
	if m < e.cfg.Load().crossover {
		trsmFast(l, b, m)
		return
	}
	p := e.begin(s, m, m, m)
	p.trsm(l, m, b, m, m, m)
}

func (e *engine) PotrfS(s *Scratch, a []float32, m int) bool {
	if m < e.cfg.Load().crossover {
		return potrf(a, m)
	}
	p := e.begin(s, m, m, m)
	return p.potrf(a, m, m)
}

// engineProvider builds a Provider over the engine: the level-3 kernels
// (GEMM, SYRK, TRSM, POTRF) run on its packed micro-kernels, while the
// bandwidth-bound Add, Sub, Gemv and Trsv inherit the Fast loops, which
// touch every float once and gain nothing from packing.  Callers may
// override fields afterwards (Simd swaps in its FMA Gemv).
func engineProvider(name string, e *engine) Provider {
	engines[name] = e
	return Provider{
		Name:     name,
		GemmNN:   e.GemmNN,
		GemmNT:   e.GemmNT,
		Syrk:     e.Syrk,
		Trsm:     e.Trsm,
		Potrf:    e.Potrf,
		GemmSub:  e.GemmSub,
		Add:      addFast,
		Sub:      subFast,
		Gemv:     gemvFast,
		Trsv:     trsvFast,
		GemmNNS:  e.GemmNNS,
		GemmNTS:  e.GemmNTS,
		SyrkS:    e.SyrkS,
		GemmSubS: e.GemmSubS,
		TrsmS:    e.TrsmS,
		PotrfS:   e.PotrfS,
	}
}

// --- the packed decomposition ----------------------------------------

// pass is one kernel call on the engine: the configuration, read once
// at entry so a concurrent Configure cannot re-block a call midway, and
// the call's scratch arena carved into the GEMM packing buffers (bp,
// ap, tile) and the triangular base case's buffers (inv, tmp).
type pass struct {
	kern         tileKernel
	kc           int
	bp, ap, tile []float32
	inv, tmp     []float32
}

// begin carves s for a call whose GEMMs are at most cols wide and k
// deep and whose triangular solves span at most rows rows (0 for a
// plain GEMM).  Every buffer comes from the one arena, so a steady
// kernel stream allocates nothing.
func (e *engine) begin(s *Scratch, cols, k, rows int) pass {
	cfg := e.cfg.Load()
	mr, nr := cfg.kern.mr, cfg.kern.nr
	kcap := min(cfg.kc, k)
	bpLen := (cols + nr - 1) / nr * kcap * nr
	apLen := mr * kcap
	invLen, tmpLen := 0, 0
	if rows > 0 {
		invLen, tmpLen = triBlock*triBlock, rows*triBlock
	}
	arena := s.ensure(bpLen + apLen + mr*nr + invLen + tmpLen)
	cut := func(n int) []float32 {
		b := arena[:n:n]
		arena = arena[n:]
		return b
	}
	return pass{kern: cfg.kern, kc: cfg.kc,
		bp: cut(bpLen), ap: cut(apLen), tile: cut(mr * nr),
		inv: cut(invLen), tmp: cut(tmpLen)}
}

// gemm is the engine's one driver loop, on strided operands:
// C[rows×cols] ±= A·op(B) over depth k, where A is rows×k (stride lda),
// op(B) = Bᵀ with B cols×k (stride ldb) when transB, else B itself,
// k×cols (stride ldb), and C has stride ldc.  sub subtracts at
// write-back.  lower restricts the write-back to C's lower triangle
// (row ≥ column), the SYRK-shaped update, and requires sub: only tiles
// that intersect the triangle are visited, and the diagonal-crossing
// ones are masked.
func (p *pass) gemm(a []float32, lda int, b []float32, ldb int, c []float32, ldc int,
	rows, cols, k int, transB, sub, lower bool) {
	mr, nr := p.kern.mr, p.kern.nr
	np := (cols + nr - 1) / nr
	for k0 := 0; k0 < k; k0 += p.kc {
		kk := min(p.kc, k-k0)
		if transB {
			packBT(p.bp, b, ldb, cols, k0, kk, nr)
		} else {
			packBN(p.bp, b, ldb, cols, k0, kk, nr)
		}
		for i0 := 0; i0 < rows; i0 += mr {
			h := min(mr, rows-i0)
			packA(p.ap, a, lda, i0, h, k0, kk, mr)
			jn := np
			if lower {
				// Only tiles whose first column is on or below the last row.
				jn = min(np, (i0+h-1)/nr+1)
			}
			for jp := 0; jp < jn; jp++ {
				j0 := jp * nr
				w := min(nr, cols-j0)
				bp, ct := p.bp[jp*kk*nr:], c[i0*ldc+j0:]
				switch {
				case lower && j0+w-1 > i0:
					lowerTile(p.kern, p.ap, bp, p.tile, ct, ldc, kk, h, w, i0-j0)
				case h == mr && w == nr:
					p.kern.kern(p.ap, bp, ct, ldc, kk, sub)
				default:
					edgeTile(p.kern, p.ap, bp, p.tile, ct, ldc, kk, h, w, sub)
				}
			}
		}
	}
}

// triBlock is the order of the triangular kernels' base case: the
// recursion halves a triangle until it is at most this wide, so all but
// O(n·triBlock²) of the work runs in the GEMM core.  16 is the widest
// register tile's nr, so the splits keep the GEMMs' column panels whole.
const triBlock = 16

// triSplit returns the leading part of an n > triBlock split: about
// half, rounded up to a multiple of triBlock.
func triSplit(n int) int {
	return (n/2 + triBlock - 1) / triBlock * triBlock
}

// trsm solves X·Lᵀ = B in place of B, for B rows×n (stride ldb) and L
// n×n lower triangular (stride ldl; only its lower triangle is read).
// Splitting the columns as [X1 X2]·[L11 0; L21 L22]ᵀ = [B1 B2] gives
// X1·L11ᵀ = B1, then B2 -= X1·L21ᵀ (a GEMM), then X2·L22ᵀ = B2.
func (p *pass) trsm(l []float32, ldl int, b []float32, ldb, rows, n int) {
	if n <= triBlock {
		p.trsmBase(l, ldl, b, ldb, rows, n)
		return
	}
	n1 := triSplit(n)
	p.trsm(l, ldl, b, ldb, rows, n1)
	p.gemm(b, ldb, l[n1*ldl:], ldl, b[n1:], ldb, rows, n-n1, n1, true, true, false)
	p.trsm(l[n1*ldl+n1:], ldl, b[n1:], ldb, rows, n-n1)
}

// trsmBase solves an at most triBlock-wide X·Lᵀ = B as X = B·(L⁻¹)ᵀ:
// the small triangle is inverted once and applied to all rows by the
// GEMM core, which beats a scalar substitution sweep over the rows.
func (p *pass) trsmBase(l []float32, ldl int, b []float32, ldb, rows, n int) {
	inv, tmp := p.inv[:n*n], p.tmp[:rows*n]
	invertLower(l, ldl, inv, n)
	for r := 0; r < rows; r++ {
		row := b[r*ldb : r*ldb+n]
		copy(tmp[r*n:], row)
		clear(row)
	}
	p.gemm(tmp, n, inv, n, b, ldb, rows, n, n, true, false, false)
}

// invertLower writes the inverse of the n×n lower-triangular l (stride
// ldl) into the dense n×n inv, column by column:
// inv[i][j] = -(Σ_{j≤k<i} l[i][k]·inv[k][j]) / l[i][i].
func invertLower(l []float32, ldl int, inv []float32, n int) {
	clear(inv)
	for j := 0; j < n; j++ {
		inv[j*n+j] = 1 / l[j*ldl+j]
		for i := j + 1; i < n; i++ {
			li := l[i*ldl : i*ldl+i]
			var s float32
			for k := j; k < i; k++ {
				s += li[k] * inv[k*n+j]
			}
			inv[i*n+j] = -s / l[i*ldl+i]
		}
	}
}

// potrf factors the n×n lower triangle of a (stride lda) in place,
// recursively: L11 = chol(A11), L21 = A21·L11⁻ᵀ (trsm), A22 -= L21·L21ᵀ
// on its lower triangle (the masked GEMM), L22 = chol(A22), with the
// scalar loop as the base case.  Like the scalar kernel it writes only
// the lower triangle and reports false on a pivot that is ≤ 0 or NaN.
func (p *pass) potrf(a []float32, lda, n int) bool {
	if n <= triBlock {
		return potrfStrided(a, lda, n)
	}
	n1 := triSplit(n)
	if !p.potrf(a, lda, n1) {
		return false
	}
	n2 := n - n1
	a21, a22 := a[n1*lda:], a[n1*lda+n1:]
	p.trsm(a, lda, a21, lda, n2, n1)
	p.gemm(a21, lda, a21, lda, a22, lda, n2, n2, n1, true, true, true)
	return p.potrf(a22, lda, n2)
}

// edgeTile runs the micro-kernel for a partial tile: the kernel always
// computes a full mr×nr product, so it accumulates into a zeroed
// scratch tile (ldc = nr) and the write-back into C is masked to
// rows×cols.  Edges are O(m²) of an O(m³) computation; the detour
// through the scratch tile keeps every kernel's k loop shape-free.
func edgeTile(k tileKernel, ap, bp, tile, c []float32, ldc, kk, rows, cols int, sub bool) {
	n := k.mr * k.nr
	tile = tile[:n:n]
	for i := range tile {
		tile[i] = 0
	}
	k.kern(ap, bp, tile, k.nr, kk, false)
	for r := 0; r < rows; r++ {
		if sub {
			for j := 0; j < cols; j++ {
				c[r*ldc+j] -= tile[r*k.nr+j]
			}
		} else {
			for j := 0; j < cols; j++ {
				c[r*ldc+j] += tile[r*k.nr+j]
			}
		}
	}
}

// lowerTile is edgeTile for a Syrk tile that crosses the diagonal: the
// write-back subtracts only at positions on or below the block diagonal
// (global row i0+r ≥ global column j0+j, i.e. r+diag ≥ j with
// diag = i0-j0).
func lowerTile(k tileKernel, ap, bp, tile, c []float32, ldc, kk, rows, cols, diag int) {
	n := k.mr * k.nr
	tile = tile[:n:n]
	for i := range tile {
		tile[i] = 0
	}
	k.kern(ap, bp, tile, k.nr, kk, false)
	for r := 0; r < rows; r++ {
		jmax := r + diag
		if jmax >= cols {
			jmax = cols - 1
		}
		for j := 0; j <= jmax; j++ {
			c[r*ldc+j] -= tile[r*k.nr+j]
		}
	}
}

// packA packs rows i0..i0+rows-1 of the k-chunk a[·][k0:k0+kk] as one
// mr×kk panel: ap[k*mr+r] = a[(i0+r)*lda + k0+k], rows past the edge
// zero-filled so the micro-kernel always consumes a full panel.
func packA(ap, a []float32, lda, i0, rows, k0, kk, mr int) {
	ap = ap[: kk*mr : kk*mr]
	if rows == 6 && mr == 6 {
		packA6(ap, a, lda, i0*lda+k0, kk)
		return
	}
	for r := 0; r < rows; r++ {
		src := a[(i0+r)*lda+k0 : (i0+r)*lda+k0+kk]
		for k, v := range src {
			ap[k*mr+r] = v
		}
	}
	for r := rows; r < mr; r++ {
		for k := 0; k < kk; k++ {
			ap[k*mr+r] = 0
		}
	}
}

// packA6 is packA for a full 6-row panel: k-outer, so the panel is
// written sequentially while the six source rows stream in parallel.
func packA6(ap, a []float32, lda, off, kk int) {
	s0 := a[off : off+kk]
	s1 := a[off+lda : off+lda+kk]
	s2 := a[off+2*lda : off+2*lda+kk]
	s3 := a[off+3*lda : off+3*lda+kk]
	s4 := a[off+4*lda : off+4*lda+kk]
	s5 := a[off+5*lda : off+5*lda+kk]
	for k := range s0 {
		d := ap[k*6 : k*6+6 : k*6+6]
		d[0], d[1], d[2], d[3], d[4], d[5] = s0[k], s1[k], s2[k], s3[k], s4[k], s5[k]
	}
}

// packBN packs the k-chunk of the k×cols matrix B (stride ldb) into
// column panels of nr: bp[jp*kk*nr + k*nr + c] = b[(k0+k)*ldb + jp*nr+c],
// edge columns zero-filled.
func packBN(bp, b []float32, ldb, cols, k0, kk, nr int) {
	np := (cols + nr - 1) / nr
	for jp := 0; jp < np; jp++ {
		j0 := jp * nr
		w := min(nr, cols-j0)
		dst := bp[jp*kk*nr : (jp+1)*kk*nr : (jp+1)*kk*nr]
		for k := 0; k < kk; k++ {
			row := dst[k*nr : (k+1)*nr]
			n := copy(row, b[(k0+k)*ldb+j0:(k0+k)*ldb+j0+w])
			clear(row[n:])
		}
	}
}

// packBT packs the k-chunk of Bᵀ, for the cols×k matrix B (stride ldb),
// into column panels of nr — column j of op(B) is row j of B, so each
// packed lane streams one contiguous row:
// bp[jp*kk*nr + k*nr + c] = b[(jp*nr+c)*ldb + k0+k].
func packBT(bp, b []float32, ldb, cols, k0, kk, nr int) {
	np := (cols + nr - 1) / nr
	for jp := 0; jp < np; jp++ {
		j0 := jp * nr
		w := min(nr, cols-j0)
		dst := bp[jp*kk*nr : (jp+1)*kk*nr : (jp+1)*kk*nr]
		for c := 0; c < w; c++ {
			src := b[(j0+c)*ldb+k0 : (j0+c)*ldb+k0+kk]
			for k, v := range src {
				dst[k*nr+c] = v
			}
		}
		for c := w; c < nr; c++ {
			for k := 0; k < kk; k++ {
				dst[k*nr+c] = 0
			}
		}
	}
}
