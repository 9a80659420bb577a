package kernels

// Equivalence, dispatch and vector-kernel tests for the Simd provider.
// The tile tests mirror tuned_test.go but sweep sizes that also cross
// the assembly shapes (6×16, 8×8): tile multiples, every misalignment
// class, and sizes above one kc chunk.  The forced-fallback test pins
// the dispatch contract: with the assembly family masked, Simd must be
// bit-identical to Tuned, not merely close.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// simdSizes extends the scalar boundary sizes with assembly-tile
// crossers: multiples and misalignments of 6, 8 and 16.
var simdSizes = append([]int{6, 7, 12, 17, 18, 24, 30, 48, 97, 130}, tunedSizes...)

func randVec(m int, rng *rand.Rand) []float32 {
	v := make([]float32, m)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func TestSimdGemmNNMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range simdSizes {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNN(a, b, c1, m)
		Simd.GemmNN(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("m=%d: Simd GemmNN differs from Ref by %g", m, d)
		}
	}
}

func TestSimdGemmNTMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range simdSizes {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNT(a, b, c1, m)
		Simd.GemmNT(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("m=%d: Simd GemmNT differs from Ref by %g", m, d)
		}
	}
}

func TestSimdGemmSubMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range simdSizes {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmSub(a, b, c1, m)
		Simd.GemmSub(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("m=%d: Simd GemmSub differs from Ref by %g", m, d)
		}
	}
}

// TestSimdSyrkMatchesRef also asserts the strict upper triangle is
// untouched — the diagonal-crossing tiles of the 6×16 shape make this
// the sharpest masking test in the suite.
func TestSimdSyrkMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range simdSizes {
		a := randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.Syrk(a, c1, m)
		Simd.Syrk(a, c2, m)
		if d := LowerMaxAbsDiff(c1, c2, m); d > tolFor(m) {
			t.Fatalf("m=%d: Simd Syrk lower triangle differs from Ref by %g", m, d)
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if c2[i*m+j] != c1[i*m+j] {
					t.Fatalf("m=%d: Simd Syrk wrote above the diagonal at (%d,%d)", m, i, j)
				}
			}
		}
	}
}

// TestSimdQuickProperty fuzzes random sizes against the reference on
// all four engine kernels.
func TestSimdQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(140)
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNN(a, b, c1, m)
		Simd.GemmNN(a, b, c2, m)
		if MaxAbsDiff(c1, c2) > tolFor(m) {
			return false
		}
		Ref.GemmNT(a, b, c1, m)
		Simd.GemmNT(a, b, c2, m)
		if MaxAbsDiff(c1, c2) > tolFor(m) {
			return false
		}
		Ref.GemmSub(a, b, c1, m)
		Simd.GemmSub(a, b, c2, m)
		if MaxAbsDiff(c1, c2) > tolFor(m) {
			return false
		}
		Ref.Syrk(a, c1, m)
		Simd.Syrk(a, c2, m)
		return LowerMaxAbsDiff(c1, c2, m) <= tolFor(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSimdForcedFallbackBitwiseTuned masks the assembly family through
// the dispatch hook and asserts Simd becomes bit-identical to Tuned —
// the same guarantee a noasm build, a non-AVX2 machine or SMPSS_NOSIMD
// gets, checked without needing that hardware.
func TestSimdForcedFallbackBitwiseTuned(t *testing.T) {
	wasOn := SimdActive()
	simdForce(false)
	defer simdForce(wasOn)
	if SimdActive() {
		t.Fatal("SimdActive() true after forced fallback")
	}
	// Align blocking so the engines run identical schedules.
	tp, _ := EngineParams("tuned")
	if err := ConfigureEngine("simd", tp); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	for _, m := range []int{5, 16, 64, 97, 129} {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Tuned.GemmNN(a, b, c1, m)
		Simd.GemmNN(a, b, c2, m)
		if MaxAbsDiff(c1, c2) != 0 {
			t.Fatalf("m=%d: fallback Simd GemmNN is not bit-identical to Tuned", m)
		}
		Tuned.Syrk(a, c1, m)
		Simd.Syrk(a, c2, m)
		if MaxAbsDiff(c1, c2) != 0 {
			t.Fatalf("m=%d: fallback Simd Syrk is not bit-identical to Tuned", m)
		}
		l := cholFactor(m, rng)
		Tuned.Trsm(l, c1, m)
		Simd.Trsm(l, c2, m)
		if MaxAbsDiff(c1, c2) != 0 {
			t.Fatalf("m=%d: fallback Simd Trsm is not bit-identical to Tuned", m)
		}
		p1 := spdBlock(m, rng)
		p2 := append([]float32(nil), p1...)
		if !Tuned.Potrf(p1, m) || !Simd.Potrf(p2, m) {
			t.Fatalf("m=%d: fallback Potrf rejected an SPD block", m)
		}
		if MaxAbsDiff(p1, p2) != 0 {
			t.Fatalf("m=%d: fallback Simd Potrf is not bit-identical to Tuned", m)
		}
		y1, y2 := randVec(m, rng), []float32(nil)
		y2 = append(y2, y1...)
		x := randVec(m, rng)
		Tuned.Gemv(a, x, y1, m)
		Simd.Gemv(a, x, y2, m)
		if MaxAbsDiff(y1, y2) != 0 {
			t.Fatalf("m=%d: fallback Simd Gemv is not bit-identical to Tuned", m)
		}
	}
}

// TestSimdDispatchReportsState pins the reporting API around the force
// hook: restoring the assembly family only succeeds where it exists.
func TestSimdDispatchReportsState(t *testing.T) {
	wasOn := SimdActive()
	defer simdForce(wasOn)
	if simdForce(true) != SimdAvailable() {
		t.Fatal("simdForce(true) disagrees with SimdAvailable()")
	}
	if SimdActive() != SimdAvailable() {
		t.Fatal("SimdActive() disagrees with SimdAvailable() after simdForce(true)")
	}
	p, ok := EngineParams("simd")
	if !ok {
		t.Fatal("simd has no engine params")
	}
	if SimdActive() && (p.MR*p.NR < 32) {
		t.Fatalf("assembly family active but engine blocked at scalar shape %dx%d", p.MR, p.NR)
	}
}

// TestProviderVectorKernels checks every provider's Gemv/Trsv against
// the textbook loops — the solver routes through these fields now, so
// a nil or wrong entry would break SolveLower/QRSolve.
func TestProviderVectorKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, p := range Providers {
		if p.Gemv == nil || p.Trsv == nil {
			t.Fatalf("provider %s: nil Gemv/Trsv", p.Name)
		}
		for _, m := range []int{1, 2, 7, 16, 33, 64, 127, 256} {
			a := randBlock(m, rng)
			x := randVec(m, rng)
			y1 := randVec(m, rng)
			y2 := append([]float32(nil), y1...)
			gemvRef(a, x, y1, m)
			p.Gemv(a, x, y2, m)
			if d := MaxAbsDiff(y1, y2); d > tolFor(m) {
				t.Fatalf("%s Gemv m=%d: differs from ref by %g", p.Name, m, d)
			}
			// Well-conditioned lower triangle: unit-ish diagonal.
			l := randBlock(m, rng)
			for i := 0; i < m; i++ {
				l[i*m+i] = 4 + l[i*m+i]
			}
			b1 := randVec(m, rng)
			b2 := append([]float32(nil), b1...)
			trsvRef(l, b1, m)
			p.Trsv(l, b2, m)
			if d := MaxAbsDiff(b1, b2); d > tolFor(m) {
				t.Fatalf("%s Trsv m=%d: differs from ref by %g", p.Name, m, d)
			}
		}
	}
}

// TestSimdSteadyStateAllocFree extends the PR 3 acceptance criterion to
// the assembly path: pooled and per-worker calls allocate nothing once
// warm.
func TestSimdSteadyStateAllocFree(t *testing.T) {
	m := 128
	rng := rand.New(rand.NewSource(27))
	a, b, c := randBlock(m, rng), randBlock(m, rng), make([]float32, m*m)
	Simd.GemmNN(a, b, c, m)
	if n := testing.AllocsPerRun(20, func() { Simd.GemmNN(a, b, c, m) }); n != 0 {
		t.Fatalf("pooled Simd GemmNN allocates %v/op in steady state, want 0", n)
	}
	s := NewScratch()
	Simd.GemmNNS(s, a, b, c, m)
	if n := testing.AllocsPerRun(20, func() { Simd.GemmNNS(s, a, b, c, m) }); n != 0 {
		t.Fatalf("per-worker Simd GemmNN allocates %v/op in steady state, want 0", n)
	}
}

// TestConfigureEngineValidation pins the tuning API's error contract
// and that accepted parameters are visible through EngineParams.
func TestConfigureEngineValidation(t *testing.T) {
	if err := ConfigureEngine("goto", Params{MR: 4, NR: 2, KC: 64}); err == nil {
		t.Fatal("ConfigureEngine accepted a non-engine provider")
	}
	for _, name := range EngineProviders() {
		orig, ok := EngineParams(name)
		if !ok {
			t.Fatalf("EngineParams(%q) missing", name)
		}
		defer ConfigureEngine(name, orig)
		if err := ConfigureEngine(name, Params{MR: 999, NR: 999, KC: 64}); err == nil {
			t.Fatalf("%s: accepted an unimplemented 999x999 shape", name)
		}
		if err := ConfigureEngine(name, Params{MR: orig.MR, NR: orig.NR, KC: 0}); err == nil {
			t.Fatalf("%s: accepted kc=0", name)
		}
		want := Params{MR: orig.MR, NR: orig.NR, KC: 96, Crossover: 24}
		if err := ConfigureEngine(name, want); err != nil {
			t.Fatalf("%s: valid configure failed: %v", name, err)
		}
		if got, _ := EngineParams(name); got != want {
			t.Fatalf("%s: EngineParams %+v after configuring %+v", name, got, want)
		}
		// Blocking changes must not change results.
		rng := rand.New(rand.NewSource(28))
		m := 97
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNN(a, b, c1, m)
		ByName(name).GemmNN(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("%s at kc=96: GemmNN differs from Ref by %g", name, d)
		}
	}
}
