package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/dataid"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// replayResult holds the isolated single-layer measurements.  Each
// replay runs on the submitter goroutine alone, outside any pool.
type replayResult struct {
	tasks                        int
	analyzeNs, analyzeAllocs     float64
	insertNs, completeNs         float64
	graphAllocs                  float64
	criticalPath, avgParallelism float64
	pushGetNs                    float64
	gflopsAlone                  map[string]float64
}

// replays runs every isolated replay within about budget.
func (b *bench) replays(budget time.Duration) (replayResult, error) {
	stream := b.w.stream()
	accs := make([][]deps.Access, len(stream))
	for i, task := range stream {
		for _, a := range task {
			accs[i] = append(accs[i], deps.Access{
				Key: dataid.Key(a.data), Mode: a.mode, Region: a.region, Data: a.data,
				Alloc: dataid.AllocLike(a.data), Copy: dataid.CopyInto,
			})
		}
	}
	r := replayResult{tasks: len(accs), gflopsAlone: map[string]float64{}}
	preds, prof, err := fullGraph(accs)
	if err != nil {
		return r, err
	}
	r.criticalPath, r.avgParallelism = float64(prof.CriticalPath()), prof.AvgParallelism()

	share := budget / time.Duration(3+len(b.w.kinds()))
	r.analyzeNs, r.analyzeAllocs = analyzeReplay(accs, share)
	r.insertNs, r.completeNs, r.graphAllocs = graphReplay(preds, share)
	if r.pushGetNs, err = pushGetReplay(share); err != nil {
		return r, err
	}
	if _, ok := b.w.(*cholesky); ok {
		m := b.cfg.sizes.block
		for kind, k := range choleskyKinds {
			r.gflopsAlone[k.name] = k.cubes * math.Pow(float64(m), 3) / kernelAlone(kind, m, share) / 1e9
		}
	}
	return r, nil
}

// fullGraph analyses the whole stream without completing any task, so
// every true dependence becomes an edge whatever the timing, and
// returns each task's predecessors (by stream index) and the graph's
// parallelism profile.
func fullGraph(accs [][]deps.Access) ([][]int, *graph.Profile, error) {
	rec := &graph.Recorder{}
	g := graph.New(func(*graph.Node, int) {})
	g.Attach(rec)
	tr := deps.NewTracker(g)
	var res []deps.Resolution
	first := int64(-1)
	for i := range accs {
		n := g.AddNode(0, "", false, nil)
		if first < 0 {
			first = n.ID
		}
		res = tr.AnalyzeBatch(n, accs[i], res[:0])
		g.Seal(n)
	}
	edges, err := recordedEdges(rec)
	if err != nil {
		return nil, nil, err
	}
	preds := make([][]int, len(accs))
	for _, e := range edges {
		from, to := int(e[0]-first), int(e[1]-first)
		if from < 0 || to >= len(accs) || from >= to {
			return nil, nil, fmt.Errorf("replayed edge %d -> %d is not a forward edge of the stream", e[0], e[1])
		}
		preds[to] = append(preds[to], from)
	}
	return preds, rec.ParallelismProfile(), nil
}

// repeat runs pass until budget is spent (at least minSolves times) and
// returns the median time and the mean allocation count of one pass.
func repeat(budget time.Duration, pass func() time.Duration) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	var times []float64
	var mallocs uint64
	start := time.Now()
	for len(times) < minSolves || time.Since(start) < budget {
		runtime.ReadMemStats(&m0)
		d := pass()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		times = append(times, float64(d))
	}
	return time.Duration(median(times)), float64(mallocs) / float64(len(times))
}

// analyzeReplay times the dependence layer: per task, AddNode +
// AnalyzeBatch + Seal + Complete on a private graph, minus the same
// loop without AnalyzeBatch.
func analyzeReplay(accs [][]deps.Access, budget time.Duration) (ns, allocs float64) {
	withDeps := func() time.Duration {
		g := graph.New(func(*graph.Node, int) {})
		tr := deps.NewTracker(g)
		res := make([]deps.Resolution, 0, 4)
		t0 := time.Now()
		for i := range accs {
			n := g.AddNode(0, "", false, nil)
			res = tr.AnalyzeBatch(n, accs[i], res[:0])
			g.Seal(n)
			g.Complete(n, 0)
		}
		return time.Since(t0)
	}
	graphOnly := func() time.Duration {
		g := graph.New(func(*graph.Node, int) {})
		t0 := time.Now()
		for range accs {
			n := g.AddNode(0, "", false, nil)
			g.Seal(n)
			g.Complete(n, 0)
		}
		return time.Since(t0)
	}
	full, fullAllocs := repeat(budget*3/4, withDeps)
	bare, bareAllocs := repeat(budget/4, graphOnly)
	tasks := float64(len(accs))
	return max(0, float64(full-bare)/tasks), max(0, (fullAllocs-bareAllocs)/tasks)
}

// graphReplay times the graph layer on the stream's full dependence
// graph: AddNode + AddEdge + Seal per task, then Complete in
// submission order.
func graphReplay(preds [][]int, budget time.Duration) (insertNs, completeNs, allocs float64) {
	nodes := make([]*graph.Node, len(preds))
	var inserts, completes []float64
	var m0, m1 runtime.MemStats
	var mallocs uint64
	start := time.Now()
	for len(inserts) < minSolves || time.Since(start) < budget {
		g := graph.New(func(*graph.Node, int) {})
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := range preds {
			n := g.AddNode(0, "", false, nil)
			for _, p := range preds[i] {
				g.AddEdge(nodes[p], n)
			}
			g.Seal(n)
			nodes[i] = n
		}
		t1 := time.Now()
		for _, n := range nodes {
			g.Complete(n, 0)
		}
		t2 := time.Now()
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		inserts = append(inserts, float64(t1.Sub(t0)))
		completes = append(completes, float64(t2.Sub(t1)))
	}
	tasks := float64(len(preds))
	return median(inserts) / tasks, median(completes) / tasks, float64(mallocs) / float64(len(inserts)) / tasks
}

// pushGetReplay times one TokenMux client doing Push then Get on one
// thread, the enqueue-and-dispatch path of a task ready at submission.
func pushGetReplay(budget time.Duration) (float64, error) {
	const batch = 1024
	g := graph.New(func(*graph.Node, int) {})
	nodes := make([]*graph.Node, batch)
	for i := range nodes {
		nodes[i] = g.AddNode(0, "", false, nil)
	}
	mux := sched.NewTokenMux(2)
	c := mux.Attach(sched.NewLocalityShared(2, 1), 0)
	defer mux.Close()
	defer mux.Detach(c)
	var lost error
	pass := func() time.Duration {
		t0 := time.Now()
		for _, n := range nodes {
			mux.Push(c, n, graph.MainThread)
			if got := mux.Get(0, c, nil); got != n && lost == nil {
				lost = fmt.Errorf("push-get replay: pushed task %d, got %v", n.ID, got)
			}
		}
		return time.Since(t0)
	}
	d, _ := repeat(budget, pass)
	return float64(d) / batch, lost
}

// kernelAlone returns the median seconds of one Simd call of a
// Cholesky task kind at block m on one thread.  The block the call
// updates is restored, untimed, before every call.
func kernelAlone(kind, m int, budget time.Duration) float64 {
	spd := kernels.GenSPD(m, 7)
	l := append([]float32(nil), spd...)
	kernels.Simd.Potrf(l, m)
	in1, in2 := kernels.GenMatrix(m, 8), kernels.GenMatrix(m, 9)
	init := spd
	if kind == kindTrsm {
		// A triangular solve against a factored diagonal block.
		in1, init = l, in1
	}
	c := make([]float32, m*m)
	s := kernels.NewScratch()
	var times []float64
	start := time.Now()
	for len(times) < minSolves || time.Since(start) < budget {
		copy(c, init)
		t0 := time.Now()
		runKernel(kind, s, in1, in2, c, m)
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}
