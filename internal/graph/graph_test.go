package graph

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// collectReady returns a graph plus a thread-safe log of (node, releasedBy)
// readiness events.
func collectReady() (*Graph, *readyLog) {
	log := &readyLog{by: make(map[int64]int)}
	g := New(func(n *Node, by int) {
		log.mu.Lock()
		log.order = append(log.order, n.ID)
		log.by[n.ID] = by
		log.mu.Unlock()
	})
	return g, log
}

type readyLog struct {
	mu    sync.Mutex
	order []int64
	by    map[int64]int
}

func (l *readyLog) has(id int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, x := range l.order {
		if x == id {
			return true
		}
	}
	return false
}

func (l *readyLog) releasedBy(id int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.by[id]
}

func (l *readyLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}

func TestNodeWithoutDepsReadyAtSeal(t *testing.T) {
	g, log := collectReady()
	n := g.AddNode(0, "t", false, nil)
	if log.len() != 0 {
		t.Fatalf("node fired ready before Seal")
	}
	g.Seal(n)
	if !log.has(n.ID) {
		t.Fatalf("sealed node with no deps not reported ready")
	}
	if by := log.releasedBy(n.ID); by != MainThread {
		t.Fatalf("releasedBy = %d, want MainThread", by)
	}
	if n.State() != StateReady {
		t.Fatalf("state = %v, want ready", n.State())
	}
}

func TestEdgeDefersReadiness(t *testing.T) {
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	b := g.AddNode(0, "b", false, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	if log.has(b.ID) {
		t.Fatalf("b ready before its predecessor completed")
	}
	g.Complete(a, 3)
	if !log.has(b.ID) {
		t.Fatalf("b not ready after predecessor completed")
	}
	if by := log.releasedBy(b.ID); by != 3 {
		t.Fatalf("releasedBy = %d, want 3 (the completing worker)", by)
	}
}

func TestEdgeFromCompletedNodeIsNoOp(t *testing.T) {
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	g.Complete(a, 0)
	b := g.AddNode(0, "b", false, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	if !log.has(b.ID) {
		t.Fatalf("edge from done node must not block successor")
	}
	if b.Poisoned() {
		t.Fatalf("edge from a clean done node poisoned its successor")
	}
	// A poisoned done node still taints, as its completion would have.
	p := g.AddNode(0, "p", false, nil)
	g.Seal(p)
	p.MarkPoisoned()
	g.Complete(p, 0)
	c := g.AddNode(0, "c", false, nil)
	g.AddEdge(p, c)
	g.Seal(c)
	if !log.has(c.ID) || !c.Poisoned() {
		t.Fatalf("edge from a poisoned done node: ready %v, poisoned %v; want both", log.has(c.ID), c.Poisoned())
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.AddEdge(a, a)
	g.Seal(a)
	if !log.has(a.ID) {
		t.Fatalf("self edge must be ignored")
	}
}

func TestDiamondDependency(t *testing.T) {
	g, log := collectReady()
	// a → b, a → c, b → d, c → d
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	b := g.AddNode(0, "b", false, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	c := g.AddNode(0, "c", false, nil)
	g.AddEdge(a, c)
	g.Seal(c)
	d := g.AddNode(0, "d", false, nil)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	g.Seal(d)

	g.Complete(a, 0)
	if !log.has(b.ID) || !log.has(c.ID) {
		t.Fatalf("b,c should be ready after a")
	}
	if log.has(d.ID) {
		t.Fatalf("d ready too early")
	}
	g.Complete(b, 1)
	if log.has(d.ID) {
		t.Fatalf("d ready with one pending predecessor")
	}
	g.Complete(c, 2)
	if !log.has(d.ID) {
		t.Fatalf("d not ready after both predecessors")
	}
	if by := log.releasedBy(d.ID); by != 2 {
		t.Fatalf("d released by %d, want 2 (last completer)", by)
	}
}

func TestOpenCount(t *testing.T) {
	g, _ := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	b := g.AddNode(0, "b", false, nil)
	g.Seal(b)
	if g.Open() != 2 {
		t.Fatalf("Open = %d, want 2", g.Open())
	}
	g.Complete(a, 0)
	if g.Open() != 1 {
		t.Fatalf("Open = %d, want 1", g.Open())
	}
	g.Complete(b, 0)
	if g.Open() != 0 {
		t.Fatalf("Open = %d, want 0", g.Open())
	}
	if g.Added() != 2 {
		t.Fatalf("Added = %d, want 2", g.Added())
	}
}

func TestIDsFollowInvocationOrder(t *testing.T) {
	g, _ := collectReady()
	for want := int64(1); want <= 5; want++ {
		n := g.AddNode(0, "t", false, nil)
		if n.ID != want {
			t.Fatalf("ID = %d, want %d", n.ID, want)
		}
		g.Seal(n)
	}
}

func TestConcurrentCompletionsReleaseOnce(t *testing.T) {
	// A node with many predecessors completed from many goroutines must
	// fire its readiness callback exactly once.
	const preds = 64
	var fired atomic.Int32
	g := New(func(n *Node, by int) { fired.Add(1) })
	sink := g.AddNode(0, "sink", false, nil)
	var ps []*Node
	for i := 0; i < preds; i++ {
		p := g.AddNode(0, "p", false, nil)
		g.Seal(p)
		g.AddEdge(p, sink)
		ps = append(ps, p)
	}
	g.Seal(sink)

	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *Node) {
			defer wg.Done()
			g.Complete(p, i)
		}(i, p)
	}
	wg.Wait()
	// preds roots fired at Seal + sink once.
	if got := fired.Load(); got != preds+1 {
		t.Fatalf("ready fired %d times, want %d", got, preds+1)
	}
}

func TestRecorderCountsAndRoots(t *testing.T) {
	g, _ := collectReady()
	rec := &Recorder{}
	g.Attach(rec)
	a := g.AddNode(0, "alpha", false, nil)
	g.Seal(a)
	b := g.AddNode(1, "beta", true, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	c := g.AddNode(0, "alpha", false, nil)
	g.AddEdge(b, c)
	g.Seal(c)
	g.Detach()
	// Node added after Detach must not be recorded.
	d := g.AddNode(0, "alpha", false, nil)
	g.Seal(d)

	if rec.NumNodes() != 3 || rec.NumEdges() != 2 {
		t.Fatalf("recorded %d nodes / %d edges, want 3 / 2", rec.NumNodes(), rec.NumEdges())
	}
	kc := rec.KindCounts()
	if kc["alpha"] != 2 || kc["beta"] != 1 {
		t.Fatalf("kind counts = %v", kc)
	}
	roots := rec.Roots()
	if len(roots) != 1 || roots[0] != a.ID {
		t.Fatalf("roots = %v, want [%d]", roots, a.ID)
	}
	if cpl := rec.CriticalPathLength(); cpl != 3 {
		t.Fatalf("critical path = %d, want 3", cpl)
	}
}

func TestRecorderDOT(t *testing.T) {
	g, _ := collectReady()
	rec := &Recorder{}
	g.Attach(rec)
	a := g.AddNode(0, "spotrf_t", false, nil)
	g.Seal(a)
	b := g.AddNode(1, "strsm_t", true, nil)
	g.AddEdge(a, b)
	g.Seal(b)

	var sb strings.Builder
	if err := rec.WriteDOT(&sb, "cholesky"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph \"cholesky\"", "n1 ", "n2 ", "n1 -> n2", "doubleoctagon", "spotrf_t"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestCriticalPathOfChainProperty(t *testing.T) {
	// Property: a pure chain of n tasks has critical path length n,
	// n-1 edges, and exactly one root.
	f := func(raw uint8) bool {
		n := int(raw%40) + 1
		g, _ := collectReady()
		rec := &Recorder{}
		g.Attach(rec)
		var prev *Node
		for i := 0; i < n; i++ {
			nd := g.AddNode(0, "t", false, nil)
			if prev != nil {
				g.AddEdge(prev, nd)
			}
			g.Seal(nd)
			prev = nd
		}
		return rec.CriticalPathLength() == n &&
			rec.NumEdges() == n-1 &&
			len(rec.Roots()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	cases := map[NodeState]string{
		StateBuilding: "building",
		StateReady:    "ready",
		StateRunning:  "running",
		StateDone:     "done",
		NodeState(9):  "state(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMarkRunning(t *testing.T) {
	g, _ := collectReady()
	n := g.AddNode(0, "t", false, nil)
	g.Seal(n)
	g.MarkRunning(n)
	if n.State() != StateRunning {
		t.Fatalf("state = %v, want running", n.State())
	}
	g.Complete(n, 0)
	if !n.Done() {
		t.Fatalf("node not done after Complete")
	}
}

func TestOnCompleteFiresOnce(t *testing.T) {
	g, _ := collectReady()
	n := g.AddNode(0, "t", false, nil)
	g.Seal(n)
	var fired atomic.Int32
	n.OnComplete(func() { fired.Add(1) })
	n.OnComplete(func() { fired.Add(1) })
	if fired.Load() != 0 {
		t.Fatalf("observer fired before completion")
	}
	g.Complete(n, 0)
	if fired.Load() != 2 {
		t.Fatalf("observers fired %d times, want 2", fired.Load())
	}
}

func TestOnCompleteAfterDoneRunsImmediately(t *testing.T) {
	g, _ := collectReady()
	n := g.AddNode(0, "t", false, nil)
	g.Seal(n)
	g.Complete(n, 0)
	fired := false
	n.OnComplete(func() { fired = true })
	if !fired {
		t.Fatalf("observer on a done node must run immediately")
	}
}

func TestOnCompleteRunsAfterSuccessorRelease(t *testing.T) {
	// Observers fire after successors are released, so a completion
	// hook observes the dependent already made ready.
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	b := g.AddNode(0, "b", false, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	sawReady := false
	a.OnComplete(func() { sawReady = log.has(b.ID) })
	g.Complete(a, 3)
	if !sawReady {
		t.Fatalf("observer must run after successors are released")
	}
}
