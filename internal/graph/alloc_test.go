package graph

import "testing"

// TestInsertSealCompleteAllocFree pins the graph layer's cost on
// caller-provided node storage: inserting, sealing and completing a
// node allocates nothing.
func TestInsertSealCompleteAllocFree(t *testing.T) {
	const runs = 100
	g := New(func(*Node, int) {})
	nodes := make([]Node, runs+1)
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		n := &nodes[next]
		next++
		g.Insert(n, 1, "t", false, nil)
		g.Seal(n)
		g.Complete(n, 0)
	}); got != 0 {
		t.Fatalf("Insert + Seal + Complete: %v allocations, want 0", got)
	}
	if g.Open() != 0 || g.Added() != runs+1 {
		t.Fatalf("open = %d, added = %d; want 0, %d", g.Open(), g.Added(), runs+1)
	}
}
