package kernels

// Tests for the packed engines' triangular kernels (engine.go: trsm,
// potrf).  The sizes straddle every structural boundary of the
// recursion — below the crossover, inside one base block, and odd
// sizes that are multiples of neither mr, nr nor triBlock — and the
// inputs carry garbage above the diagonal, as a Cholesky tile does, to
// prove only the lower triangle is read and written.

import (
	"math"
	"math/rand"
	"testing"
)

var triSizes = []int{1, 7, 33, 100, 128, 200}

// enginePair lists the providers whose Trsm/Potrf run on a packed engine.
var enginePair = []Provider{Simd, Tuned}

// cholFactor returns the scalar Cholesky factor of a random SPD block,
// keeping the input's (nonzero) upper triangle in place.
func cholFactor(m int, rng *rand.Rand) []float32 {
	l := spdBlock(m, rng)
	if !potrf(l, m) {
		panic("spdBlock not positive definite")
	}
	return l
}

// withLowCrossover runs f at the engines' own crossover, then again
// with it lowered to 1, so the sizes below the default crossover also
// run the packed recursion rather than the scalar loops.
func withLowCrossover(t *testing.T, f func()) {
	f()
	defer snapshotEngines(t)()
	for _, name := range EngineProviders() {
		p, _ := EngineParams(name)
		p.Crossover = 1
		if err := ConfigureEngine(name, p); err != nil {
			t.Fatal(err)
		}
	}
	f()
}

func TestEngineTrsmMatchesRef(t *testing.T) {
	withLowCrossover(t, func() { testEngineTrsm(t) })
}

func testEngineTrsm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range triSizes {
		l := cholFactor(m, rng)
		b := randBlock(m, rng)
		want := append([]float32(nil), b...)
		trsmRef(l, want, m)
		for _, p := range enginePair {
			got := append([]float32(nil), b...)
			p.Trsm(l, got, m)
			if d := MaxAbsDiff(got, want); d > tolFor(m) {
				t.Fatalf("%s Trsm m=%d: differs from trsmRef by %g", p.Name, m, d)
			}
			got2 := append([]float32(nil), b...)
			p.TrsmS(NewScratch(), l, got2, m)
			if MaxAbsDiff(got, got2) != 0 {
				t.Fatalf("%s TrsmS m=%d: not bit-identical to Trsm", p.Name, m)
			}
		}
	}
}

func TestEnginePotrfMatchesScalar(t *testing.T) {
	withLowCrossover(t, func() { testEnginePotrf(t) })
}

func testEnginePotrf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range triSizes {
		a := spdBlock(m, rng)
		// Garbage above the diagonal: Potrf must neither read nor write it.
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				a[i*m+j] = float32(1000 + i*m + j)
			}
		}
		want := append([]float32(nil), a...)
		if !potrf(want, m) {
			t.Fatalf("m=%d: scalar potrf rejected an SPD block", m)
		}
		for _, p := range enginePair {
			got := append([]float32(nil), a...)
			if !p.Potrf(got, m) {
				t.Fatalf("%s Potrf m=%d: rejected an SPD block", p.Name, m)
			}
			if d := LowerMaxAbsDiff(got, want, m); d > tolFor(m) {
				t.Fatalf("%s Potrf m=%d: lower triangle differs from potrf by %g", p.Name, m, d)
			}
			for i := 0; i < m; i++ {
				for j := i + 1; j < m; j++ {
					if got[i*m+j] != a[i*m+j] {
						t.Fatalf("%s Potrf m=%d: wrote above the diagonal at (%d,%d)", p.Name, m, i, j)
					}
				}
			}
			got2 := append([]float32(nil), a...)
			p.PotrfS(NewScratch(), got2, m)
			if MaxAbsDiff(got, got2) != 0 {
				t.Fatalf("%s PotrfS m=%d: not bit-identical to Potrf", p.Name, m)
			}
		}
	}
}

// TestEnginePotrfRejectsIndefinite breaks positive definiteness in the
// last base block (so the failure surfaces from deep in the recursion)
// and with a NaN pivot.
func TestEnginePotrfRejectsIndefinite(t *testing.T) {
	withLowCrossover(t, func() { testEnginePotrfRejects(t) })
}

func testEnginePotrfRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, m := range triSizes {
		for _, bad := range []float32{-1e6, float32(math.NaN())} {
			a := spdBlock(m, rng)
			a[(m-1)*m+m-1] = bad
			for _, p := range enginePair {
				if p.Potrf(append([]float32(nil), a...), m) {
					t.Fatalf("%s Potrf m=%d: accepted pivot %g", p.Name, m, bad)
				}
				if p.PotrfS(NewScratch(), append([]float32(nil), a...), m) {
					t.Fatalf("%s PotrfS m=%d: accepted pivot %g", p.Name, m, bad)
				}
			}
		}
	}
}

// TestEngineTriangularAllocFree pins the scratch rule: every buffer the
// triangular kernels use comes from the Scratch, so warm calls through
// either entry point allocate nothing.
func TestEngineTriangularAllocFree(t *testing.T) {
	const m = 128
	rng := rand.New(rand.NewSource(44))
	l := cholFactor(m, rng)
	spd := spdBlock(m, rng)
	b, a := randBlock(m, rng), make([]float32, m*m)
	s := NewScratch()
	for _, p := range enginePair {
		calls := map[string]func(){
			"Trsm":   func() { p.Trsm(l, b, m) },
			"TrsmS":  func() { p.TrsmS(s, l, b, m) },
			"Potrf":  func() { copy(a, spd); p.Potrf(a, m) },
			"PotrfS": func() { copy(a, spd); p.PotrfS(s, a, m) },
		}
		for name, f := range calls {
			f()
			if n := testing.AllocsPerRun(20, f); n != 0 {
				t.Fatalf("%s %s allocates %v/op in steady state, want 0", p.Name, name, n)
			}
		}
	}
}
