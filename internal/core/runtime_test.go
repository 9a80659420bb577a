package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
)

// fill declares a task writing constant c into its output parameter.
var fillDef = NewTaskDef("fill", func(a *Args) {
	c := float32(a.Float(1))
	out := a.F32(0)
	for i := range out {
		out[i] = c
	}
})

// axpy declares y += alpha * x.
var axpyDef = NewTaskDef("axpy", func(a *Args) {
	x, y := a.F32(0), a.F32(1)
	alpha := float32(a.Float(2))
	for i := range y {
		y[i] += alpha * x[i]
	}
})

// scale declares x *= alpha (an inout chain link).
var scaleDef = NewTaskDef("scale", func(a *Args) {
	x := a.F32(0)
	alpha := float32(a.Float(1))
	for i := range x {
		x[i] *= alpha
	}
})

func newRT(t *testing.T, workers int) *Runtime {
	t.Helper()
	return New(Config{Workers: workers})
}

func TestSingleTask(t *testing.T) {
	rt := newRT(t, 4)
	defer rt.Close()
	x := make([]float32, 8)
	rt.Submit(fillDef, Out(x), Value(3.0))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v != 3 {
			t.Fatalf("x[%d] = %v, want 3", i, v)
		}
	}
}

func TestRAWChainProducesSequentialResult(t *testing.T) {
	rt := newRT(t, 8)
	defer rt.Close()
	x := make([]float32, 4)
	rt.Submit(fillDef, Out(x), Value(1.0))
	for i := 0; i < 10; i++ {
		rt.Submit(scaleDef, InOut(x), Value(2.0))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1024 {
		t.Fatalf("x[0] = %v, want 1024 (2^10)", x[0])
	}
}

func TestRenamingKeepsReadersConsistent(t *testing.T) {
	// Writer fills x with 1; reader accumulates x into y; then x is
	// overwritten with 100.  Renaming must let the overwrite proceed
	// without corrupting the reader's input, and after the barrier x
	// must hold the final value (sync-back).
	rt := newRT(t, 8)
	defer rt.Close()
	x := make([]float32, 4)
	y := make([]float32, 4)
	for trial := 0; trial < 50; trial++ {
		rt.Submit(fillDef, Out(x), Value(1.0))
		rt.Submit(fillDef, Out(y), Value(0.0))
		rt.Submit(axpyDef, In(x), InOut(y), Value(1.0)) // y = x = 1s
		rt.Submit(fillDef, Out(x), Value(100.0))        // renamed: no WAR on reader
		rt.Submit(axpyDef, In(x), InOut(y), Value(1.0)) // y += 100
		if err := rt.Barrier(); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if y[i] != 101 {
				t.Fatalf("trial %d: y[%d] = %v, want 101", trial, i, y[i])
			}
			if x[i] != 100 {
				t.Fatalf("trial %d: x[%d] = %v, want 100 after sync-back", trial, i, x[i])
			}
		}
	}
	if st := rt.Stats(); st.Deps.Renames == 0 {
		t.Fatalf("expected renames to occur: %+v", st.Deps)
	}
}

func TestInOutRenameSeedsContents(t *testing.T) {
	// x=7s; reader of x pending; scale(x) must see the 7s through the
	// rename seed copy.
	rt := newRT(t, 8)
	defer rt.Close()
	x := make([]float32, 4)
	y := make([]float32, 4)
	rt.Submit(fillDef, Out(x), Value(7.0))
	rt.Submit(fillDef, Out(y), Value(0.0))
	rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
	rt.Submit(scaleDef, InOut(x), Value(2.0)) // likely renamed+seeded
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 14 {
		t.Fatalf("x[0] = %v, want 14", x[0])
	}
	if y[0] != 7 {
		t.Fatalf("y[0] = %v, want 7", y[0])
	}
}

func TestValueArgsAreSnapshots(t *testing.T) {
	rt := newRT(t, 4)
	defer rt.Close()
	x := make([]float32, 1)
	for i := 1; i <= 5; i++ {
		rt.Submit(NewTaskDef("addv", func(a *Args) {
			a.F32(0)[0] += float32(a.Int(1))
		}), InOut(x), Value(i))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 15 {
		t.Fatalf("x[0] = %v, want 15", x[0])
	}
}

func TestOpaqueSkipsDependencyAnalysis(t *testing.T) {
	// Two tasks inout the same opaque pointer: without analysis they
	// may run in parallel, so they must not be serialized by the graph.
	rt := newRT(t, 4)
	defer rt.Close()
	shared := make([]float32, 1)
	var running atomic.Int32
	var sawParallel atomic.Bool
	def := NewTaskDef("opq", func(a *Args) {
		if running.Add(1) == 2 {
			sawParallel.Store(true)
		}
		time.Sleep(5 * time.Millisecond)
		running.Add(-1)
		_ = a.Opaque(0)
	})
	for i := 0; i < 8; i++ {
		rt.Submit(def, Opaque(shared))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if !sawParallel.Load() {
		t.Fatalf("opaque tasks never overlapped; dependency analysis leaked in")
	}
	if st := rt.Stats(); st.Deps.Objects != 0 {
		t.Fatalf("opaque args must not register objects: %+v", st.Deps)
	}
}

func TestRepresentantsIntroduceOrdering(t *testing.T) {
	// The §V.B workaround: a representant (tracked address) carries the
	// dependency while the data travels through an opaque pointer.
	rt := newRT(t, 4)
	defer rt.Close()
	data := make([]float32, 8)
	repr := make([]byte, 1) // representant for data[0:4]
	var order []int
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	record := func(k int) {
		<-mu
		order = append(order, k)
		mu <- struct{}{}
	}
	w := NewTaskDef("w", func(a *Args) {
		record(1)
		d := a.Opaque(0).([]float32)
		d[0] = 42
	})
	r := NewTaskDef("r", func(a *Args) {
		record(2)
		d := a.Opaque(0).([]float32)
		if d[0] != 42 {
			panic("reader ran before writer")
		}
	})
	rt.Submit(w, Opaque(data), InOut(repr))
	rt.Submit(r, Opaque(data), In(repr))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("order = %v, want writer first", order)
	}
}

func TestWaitOn(t *testing.T) {
	rt := newRT(t, 4)
	defer rt.Close()
	x := make([]float32, 4)
	y := make([]float32, 4)
	rt.Submit(fillDef, Out(x), Value(5.0))
	rt.Submit(fillDef, Out(y), Value(9.0))
	if err := rt.WaitOn(x); err != nil {
		t.Fatal(err)
	}
	if x[0] != 5 {
		t.Fatalf("x[0] = %v after WaitOn, want 5", x[0])
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if y[0] != 9 {
		t.Fatalf("y[0] = %v, want 9", y[0])
	}
}

func TestWaitOnRegionOnlyWaitsForOverlap(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	x := make([]float32, 100)
	started := make(chan struct{})
	release := make(chan struct{})
	slow := NewTaskDef("slow", func(a *Args) {
		close(started)
		<-release
	})
	// The writer on the second half blocks until released; waiting on
	// the first half must not require it.
	rt.Submit(slow, InOutR(x, Interval(50, 99)))
	<-started // ensure the dedicated worker holds the slow task
	fast := NewTaskDef("fast", func(a *Args) { a.F32(0)[0] = 1 })
	rt.Submit(fast, InOutR(x, Interval(0, 49)))
	if err := rt.WaitOnRegion(x, Interval(0, 49)); err != nil {
		t.Fatal(err) // would deadlock (not just fail) if it waited on slow
	}
	if x[0] != 1 {
		t.Fatalf("x[0] = %v, want 1 after WaitOnRegion", x[0])
	}
	close(release)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionTasksOrderOverlaps(t *testing.T) {
	rt := newRT(t, 8)
	defer rt.Close()
	x := make([]float32, 64)
	add := NewTaskDef("radd", func(a *Args) {
		lo, hi := a.Int(1), a.Int(2)
		data := a.F32(0)
		for i := lo; i <= hi; i++ {
			data[i] = data[i]*2 + 1
		}
	})
	// Overlapping chain on [0..63] in three steps, plus disjoint work.
	rt.Submit(add, InOutR(x, Interval(0, 40)), Value(0), Value(40))
	rt.Submit(add, InOutR(x, Interval(20, 63)), Value(20), Value(63))
	rt.Submit(add, InOutR(x, Interval(0, 10)), Value(0), Value(10))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Element 30 went through steps 1 and 2: ((0*2+1)*2+1) = 3.
	if x[30] != 3 {
		t.Fatalf("x[30] = %v, want 3", x[30])
	}
	// Element 5 went through steps 1 and 3.
	if x[5] != 3 {
		t.Fatalf("x[5] = %v, want 3", x[5])
	}
	// Element 50 only step 2.
	if x[50] != 1 {
		t.Fatalf("x[50] = %v, want 1", x[50])
	}
}

func TestTaskPanicReportedAtBarrier(t *testing.T) {
	rt := newRT(t, 4)
	defer rt.Close()
	boom := NewTaskDef("boom", func(a *Args) { panic("kaput") })
	rt.Submit(boom)
	err := rt.Barrier()
	if err == nil || !strings.Contains(err.Error(), "kaput") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Barrier err = %v, want task panic", err)
	}
}

func TestPanicDoesNotWedgeSuccessors(t *testing.T) {
	rt := newRT(t, 4)
	defer rt.Close()
	x := make([]float32, 1)
	boom := NewTaskDef("boom2", func(a *Args) { panic("x") })
	var ran atomic.Bool
	after := NewTaskDef("after", func(a *Args) { ran.Store(true) })
	rt.Submit(boom, InOut(x))
	rt.Submit(after, InOut(x))
	if err := rt.Barrier(); err == nil {
		t.Fatalf("expected error")
	}
	if !ran.Load() {
		t.Fatalf("successor of panicked task never ran; graph wedged")
	}
}

func TestMemoryLimitThrottlesRenaming(t *testing.T) {
	// Each iteration renames a 4 KiB buffer (writer over pending
	// reader); a 16 KiB limit bounds the in-flight renamed storage.
	rt := New(Config{Workers: 2, MemoryLimit: 16 << 10})
	defer rt.Close()
	x := make([]float32, 1024) // 4 KiB
	y := make([]float32, 1024)
	for i := 0; i < 100; i++ {
		rt.Submit(fillDef, Out(x), Value(float64(i)))
		rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Deps.Renames == 0 {
		t.Fatalf("workload must rename: %+v", st.Deps)
	}
	if st.MainHelped == 0 {
		t.Fatalf("main thread never helped under the memory limit: %+v", st)
	}
	if got := rt.liveRenamedBytes(); got != 0 {
		t.Fatalf("renamed-bytes accounting leaked %d bytes", got)
	}
}

// TestGraphLimitThrottlesSubmitter submits independent tasks behind a
// gate: the pool's one worker blocks in its first task until the main
// thread has run one, so the open-task count must reach the limit and
// the throttled submitter always finds queued work to help with.
func TestGraphLimitThrottlesSubmitter(t *testing.T) {
	rt := New(Config{Workers: 2, GraphLimit: 8})
	defer rt.Close()
	gate := make(chan struct{})
	var opened sync.Once
	gated := NewTaskDef("gated", func(a *Args) {
		if a.Worker() == 0 {
			opened.Do(func() { close(gate) })
		} else {
			<-gate
		}
		a.F32(0)[0]++
	})
	cells := make([][]float32, 200)
	for i := range cells {
		cells[i] = make([]float32, 1)
	}
	for i := range cells {
		rt.Submit(gated, InOut(cells[i]))
		if open := rt.Stats().TasksSubmitted - rt.Stats().TasksExecuted; open > 16 {
			t.Fatalf("open tasks = %d exceeds limit slack", open)
		}
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.MainHelped == 0 {
		t.Fatalf("main thread never helped under throttle: %+v", st)
	}
}

func TestSingleWorkerRunsEverythingAtBarrier(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	x := make([]float32, 4)
	rt.Submit(fillDef, Out(x), Value(2.0))
	for i := 0; i < 20; i++ {
		rt.Submit(scaleDef, InOut(x), Value(1.0))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Fatalf("x[0] = %v, want 2", x[0])
	}
	if st := rt.Stats(); st.TasksExecuted != 21 {
		t.Fatalf("executed = %d, want 21", st.TasksExecuted)
	}
}

func TestGlobalFIFOSchedulerWorks(t *testing.T) {
	rt := New(Config{Workers: 4, Scheduler: SchedGlobalFIFO})
	defer rt.Close()
	x := make([]float32, 4)
	rt.Submit(fillDef, Out(x), Value(1.0))
	for i := 0; i < 10; i++ {
		rt.Submit(scaleDef, InOut(x), Value(2.0))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1024 {
		t.Fatalf("x[0] = %v, want 1024", x[0])
	}
}

func TestHighPriorityTaskDef(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	var hits atomic.Int32
	hp := NewHighPriorityTaskDef("hp", func(a *Args) { hits.Add(1) })
	if !hp.HighPriority {
		t.Fatalf("NewHighPriorityTaskDef must set the clause")
	}
	rt.Submit(hp)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 {
		t.Fatalf("high-priority task did not run")
	}
	if st := rt.Stats(); st.Sched.PushHigh != 1 {
		t.Fatalf("task not routed to the high-priority list: %+v", st.Sched)
	}
}

func TestRunWrapper(t *testing.T) {
	x := make([]float32, 2)
	err := Run(Config{Workers: 2}, func(rt *Runtime) error {
		rt.Submit(fillDef, Out(x), Value(4.0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 4 {
		t.Fatalf("x[0] = %v, want 4", x[0])
	}
}

func TestRunPropagatesBodyError(t *testing.T) {
	wantErr := fmt.Errorf("body failed")
	err := Run(Config{Workers: 1}, func(rt *Runtime) error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestSubmitAfterClosePanics(t *testing.T) {
	rt := newRT(t, 1)
	rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("Submit after Close must panic")
		}
	}()
	rt.Submit(fillDef, Out(make([]float32, 1)), Value(0.0))
}

func TestRecorderCapturesGraph(t *testing.T) {
	rec := &graph.Recorder{}
	// One worker: no task runs before the closing barrier, so the edge is
	// recorded deterministically (a completed producer needs no edge).
	rt := New(Config{Workers: 1, Recorder: rec})
	x := make([]float32, 2)
	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Submit(scaleDef, InOut(x), Value(2.0))
	rt.Close()
	if rec.NumNodes() != 2 || rec.NumEdges() != 1 {
		t.Fatalf("recorded %d nodes / %d edges, want 2 / 1", rec.NumNodes(), rec.NumEdges())
	}
}

func TestTracerSeesLifecycle(t *testing.T) {
	tr := trace.New()
	rt := New(Config{Workers: 2, Tracer: tr})
	x := make([]float32, 2)
	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Close()
	sum := tr.Summarize()
	found := false
	for _, k := range sum.Kinds {
		if k.Label == "fill" && k.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace summary missing fill execution: %+v", sum)
	}
}

// TestRandomProgramMatchesSequential is the gold test: a random task
// program executed by the parallel runtime must produce exactly the
// results of running the same task sequence sequentially in submission
// order — the paper's core promise that the annotated program keeps its
// sequential semantics.
func TestRandomProgramMatchesSequential(t *testing.T) {
	const (
		nBuffers = 6
		bufLen   = 8
		nTasks   = 400
	)
	type op struct {
		kind int // 0 fill, 1 axpy, 2 scale
		a, b int
		c    float64
	}
	rng := rand.New(rand.NewSource(20080929)) // CLUSTER'08 week
	var ops []op
	for i := 0; i < nTasks; i++ {
		ops = append(ops, op{
			kind: rng.Intn(3),
			a:    rng.Intn(nBuffers),
			b:    rng.Intn(nBuffers),
			c:    float64(rng.Intn(5)) + 0.5,
		})
	}

	// Sequential reference.
	ref := make([][]float32, nBuffers)
	for i := range ref {
		ref[i] = make([]float32, bufLen)
	}
	for _, o := range ops {
		switch o.kind {
		case 0:
			for i := range ref[o.a] {
				ref[o.a][i] = float32(o.c)
			}
		case 1:
			if o.a == o.b {
				continue
			}
			for i := range ref[o.b] {
				ref[o.b][i] += float32(o.c) * ref[o.a][i]
			}
		case 2:
			for i := range ref[o.a] {
				ref[o.a][i] *= float32(o.c)
			}
		}
	}

	for _, workers := range []int{1, 2, 8} {
		for _, scheduler := range []SchedulerKind{SchedLocality, SchedGlobalFIFO} {
			for _, noRename := range []bool{false, true} {
				bufs := make([][]float32, nBuffers)
				for i := range bufs {
					bufs[i] = make([]float32, bufLen)
				}
				rt := New(Config{Workers: workers, Scheduler: scheduler, DisableRenaming: noRename})
				for _, o := range ops {
					switch o.kind {
					case 0:
						rt.Submit(fillDef, Out(bufs[o.a]), Value(o.c))
					case 1:
						if o.a == o.b {
							continue
						}
						rt.Submit(axpyDef, In(bufs[o.a]), InOut(bufs[o.b]), Value(o.c))
					case 2:
						rt.Submit(scaleDef, InOut(bufs[o.a]), Value(o.c))
					}
				}
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				for bi := range bufs {
					for i := range bufs[bi] {
						if bufs[bi][i] != ref[bi][i] {
							t.Fatalf("workers=%d sched=%d noRename=%v: buf[%d][%d] = %v, want %v",
								workers, scheduler, noRename, bi, i, bufs[bi][i], ref[bi][i])
						}
					}
				}
			}
		}
	}
}

// TestRandomRegionProgramMatchesSequential is the region-extension
// analogue of the gold test: random overlapping interval updates on one
// array must replay exactly like the sequential order.
func TestRandomRegionProgramMatchesSequential(t *testing.T) {
	const (
		n      = 256
		nTasks = 300
	)
	type op struct {
		lo, hi int
		mul    float32
		add    float32
	}
	rng := rand.New(rand.NewSource(142)) // paper's first page number
	var ops []op
	for i := 0; i < nTasks; i++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		ops = append(ops, op{lo: lo, hi: hi, mul: 1.5, add: float32(i % 7)})
	}
	ref := make([]float32, n)
	for _, o := range ops {
		for i := o.lo; i <= o.hi; i++ {
			ref[i] = ref[i]*o.mul + o.add
		}
	}

	upd := NewTaskDef("rupd", func(a *Args) {
		data := a.F32(0)
		lo, hi := a.Int(1), a.Int(2)
		mul, add := float32(a.Float(3)), float32(a.Float(4))
		for i := lo; i <= hi; i++ {
			data[i] = data[i]*mul + add
		}
	})

	for _, workers := range []int{1, 8} {
		x := make([]float32, n)
		rt := New(Config{Workers: workers})
		for _, o := range ops {
			rt.Submit(upd, InOutR(x, Interval(int64(o.lo), int64(o.hi))),
				Value(o.lo), Value(o.hi), Value(float64(o.mul)), Value(float64(o.add)))
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d: x[%d] = %v, want %v", workers, i, x[i], ref[i])
			}
		}
	}
}

// TestRandomMixedRegionProgramMatchesSequential stresses the
// versioned→regioned flip: a random program mixing whole-object and
// region accesses on the same arrays must replay exactly like the
// sequential submission order.
func TestRandomMixedRegionProgramMatchesSequential(t *testing.T) {
	const (
		n      = 128
		nTasks = 250
	)
	type op struct {
		whole  bool
		mode   int // 0 in(no-op read), 1 out(fill), 2 inout(update)
		lo, hi int
		c      float32
	}
	rng := rand.New(rand.NewSource(2008))
	var ops []op
	for i := 0; i < nTasks; i++ {
		lo := rng.Intn(n)
		ops = append(ops, op{
			whole: rng.Intn(3) == 0,
			mode:  rng.Intn(3),
			lo:    lo,
			hi:    lo + rng.Intn(n-lo),
			c:     float32(rng.Intn(9)) + 1,
		})
	}
	ref := make([]float32, n)
	apply := func(dst []float32, o op) {
		lo, hi := o.lo, o.hi
		if o.whole {
			lo, hi = 0, n-1
		}
		switch o.mode {
		case 1:
			for i := lo; i <= hi; i++ {
				dst[i] = o.c
			}
		case 2:
			for i := lo; i <= hi; i++ {
				dst[i] = dst[i]*0.5 + o.c
			}
		}
	}
	for _, o := range ops {
		apply(ref, o)
	}

	def := NewTaskDef("mixed", func(a *Args) {
		data := a.F32(0)
		o := a.Value(1).(op)
		apply(data, o)
	})
	for _, workers := range []int{1, 8} {
		x := make([]float32, n)
		rt := New(Config{Workers: workers})
		for _, o := range ops {
			var arg Arg
			region := Interval(int64(o.lo), int64(o.hi))
			switch {
			case o.whole && o.mode == 0:
				arg = In(x)
			case o.whole && o.mode == 1:
				arg = Out(x)
			case o.whole:
				arg = InOut(x)
			case o.mode == 0:
				arg = InR(x, region)
			case o.mode == 1:
				arg = OutR(x, region)
			default:
				arg = InOutR(x, region)
			}
			rt.Submit(def, arg, Value(o))
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d: x[%d] = %v, want %v", workers, i, x[i], ref[i])
			}
		}
	}
}

func TestWaitOnReportsTaskFailure(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	x := make([]float32, 2)
	boom := NewTaskDef("boomw", func(a *Args) { panic("w") })
	rt.Submit(boom, Out(x))
	if err := rt.WaitOn(x); err == nil {
		t.Fatalf("WaitOn must surface the writer's failure")
	}
}

func TestManyBarrierCycles(t *testing.T) {
	// Failure injection for the barrier/sync-back machinery: alternate
	// healthy and renaming-heavy cycles and ensure state stays coherent.
	rt := newRT(t, 6)
	defer rt.Close()
	x := make([]float32, 16)
	y := make([]float32, 16)
	for cycle := 1; cycle <= 30; cycle++ {
		rt.Submit(fillDef, Out(x), Value(float64(cycle)))
		rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
		rt.Submit(fillDef, Out(x), Value(float64(-cycle))) // rename pressure
		if err := rt.Barrier(); err != nil {
			t.Fatal(err)
		}
		if x[0] != float32(-cycle) {
			t.Fatalf("cycle %d: x[0] = %v, want %v", cycle, x[0], -cycle)
		}
	}
	// y accumulated 1+2+...+30.
	if y[0] != 465 {
		t.Fatalf("y[0] = %v, want 465", y[0])
	}
}

func TestStatsAccounting(t *testing.T) {
	// One worker so the producer cannot complete before the consumer is
	// analyzed, making the edge count deterministic.
	rt := newRT(t, 1)
	x := make([]float32, 4)
	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Submit(scaleDef, InOut(x), Value(2.0))
	rt.Close()
	st := rt.Stats()
	if st.TasksSubmitted != 2 || st.TasksExecuted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Deps.Objects != 1 || st.Deps.TrueEdges != 1 {
		t.Fatalf("deps stats = %+v", st.Deps)
	}
}

func TestArgsAccessorsAndMismatches(t *testing.T) {
	rt := newRT(t, 1)
	defer rt.Close()
	xi64 := []int64{1, 2}
	xi32 := []int32{3}
	xint := []int{4}
	xb := []byte{5}
	xf64 := []float64{6}
	probe := NewTaskDef("probe", func(a *Args) {
		if a.Len() != 10 {
			panic("len")
		}
		if a.I64(0)[0] != 1 || a.I32(1)[0] != 3 || a.Ints(2)[0] != 4 || a.Bytes(3)[0] != 5 || a.F64(4)[0] != 6 {
			panic("data accessors")
		}
		if a.Int(5) != 42 || a.Int64(6) != 43 || a.Float(7) != 1.5 {
			panic("value accessors")
		}
		if a.Int(8) != 44 { // int64 value through Int
			panic("int64 as Int")
		}
		if a.Opaque(9).(string) != "raw" {
			panic("opaque")
		}
		if a.Worker() < 0 {
			panic("worker id")
		}
	})
	rt.Submit(probe, In(xi64), In(xi32), In(xint), In(xb), In(xf64),
		Value(42), Value(int64(43)), Value(1.5), Value(int64(44)), Opaque("raw"))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
}

func TestPointerArguments(t *testing.T) {
	type cell struct{ v int }
	rt := newRT(t, 4)
	defer rt.Close()
	c := &cell{}
	inc := NewTaskDef("inc", func(a *Args) {
		p := a.Data(0).(*cell)
		p.v++
	})
	for i := 0; i < 10; i++ {
		rt.Submit(inc, InOut(c))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if c.v != 10 {
		t.Fatalf("c.v = %d, want 10", c.v)
	}
}

func TestDataKeyPanics(t *testing.T) {
	for _, bad := range []any{nil, 7, "s", []float32{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dataKey(%T) must panic", bad)
				}
			}()
			dataKey(bad)
		}()
	}
}
