package deps

import (
	"testing"

	"repro/internal/graph"
)

// TestReleaseDrainsEveryHold reads more objects than Holds stores
// inline, so the holds spill, and checks that Release drops the
// reader holds of both parts: while they are held a write to any of the
// objects must rename, once they are released none may.
func TestReleaseDrainsEveryHold(t *testing.T) {
	const nobj = inlineHolds + 2
	for _, release := range []bool{false, true} {
		h := newHarness()
		var accs []Access
		for range nobj {
			accs = append(accs, f32Access(make([]float32, 4), ModeIn))
		}
		var held Holds
		n := h.g.AddNode(0, "reader", false, nil)
		h.tr.AnalyzeInto(n, accs, nil, &held)
		h.g.Seal(n)
		h.g.Complete(n, 0)
		if int(held.n) != nobj {
			t.Fatalf("reader holds %d references, want %d", int(held.n), nobj)
		}
		if release {
			h.tr.Release(&held)
			if int(held.n) != 0 {
				t.Fatalf("Release left %d references", int(held.n))
			}
		}
		for _, a := range accs {
			a.Mode = ModeOut
			h.task(a)
		}
		want := int64(0)
		if !release {
			want = nobj
		}
		if got := h.tr.Stats().Renames; got != want {
			t.Fatalf("release=%v: %d writes renamed, want %d", release, got, want)
		}
	}
}

// TestRenameWithoutAllocator checks that an Access without Alloc still
// renames: the pool allocates like Data on a miss.
func TestRenameWithoutAllocator(t *testing.T) {
	h := newHarness()
	buf := make([]float32, 4)
	h.task(f32Access(buf, ModeIn)) // pending reader: the write must rename
	out := f32Access(buf, ModeOut)
	out.Alloc = nil
	_, res := h.task(out)
	inst, ok := res[0].Instance.([]float32)
	if !res[0].Renamed || !ok || len(inst) != len(buf) || &inst[0] == &buf[0] {
		t.Fatalf("write beside a pending reader resolved to %T (renamed=%v), want fresh []float32 of %d", res[0].Instance, res[0].Renamed, len(buf))
	}
}

// TestAnalyzeIntoReleaseAllocFree pins the dependence layer's steady
// state: analyzing a task that reads two already-tracked objects and
// releasing its holds after completion allocates nothing.
func TestAnalyzeIntoReleaseAllocFree(t *testing.T) {
	const runs = 100
	g := graph.New(func(*graph.Node, int) {})
	tr := NewTracker(g)
	accs := []Access{f32Access(make([]float32, 4), ModeIn), f32Access(make([]float32, 4), ModeIn)}
	nodes := make([]graph.Node, runs+2)
	out := make([]Resolution, 0, len(accs))
	next := 0
	read := func() {
		n := &nodes[next]
		next++
		var held Holds
		g.Insert(n, 0, "read", false, nil)
		out = tr.AnalyzeInto(n, accs, out[:0], &held)
		g.Seal(n)
		g.Complete(n, 0)
		tr.Release(&held)
	}
	read() // first touch registers the objects
	if got := testing.AllocsPerRun(runs, read); got != 0 {
		t.Fatalf("AnalyzeInto + Release on a warmed read stream: %v allocations, want 0", got)
	}
}
