package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// failWith declares a task that fails through the structured channel
// (Args.Fail) instead of panicking.
var errInjected = errors.New("injected failure")

var failDef = NewTaskDef("failer", func(a *Args) { a.Fail(errInjected) })

func TestArgsFailReportsTaskError(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	rt.Submit(failDef)
	err := rt.Barrier()
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("Barrier err = %v, want *TaskError", err)
	}
	if te.Def != "failer" || te.TaskID == 0 || te.Worker < 0 {
		t.Fatalf("TaskError fields = %+v", te)
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("TaskError does not unwrap to the Fail cause: %v", err)
	}
	if st := rt.Stats(); st.Failures != 1 {
		t.Fatalf("Stats.Failures = %d, want 1", st.Failures)
	}
}

func TestPanicReportsTaskError(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	boom := NewTaskDef("boomTyped", func(a *Args) { panic("kapow") })
	rt.Submit(boom)
	err := rt.Barrier()
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("Barrier err = %v, want *TaskError", err)
	}
	if te.Def != "boomTyped" {
		t.Fatalf("TaskError.Def = %q", te.Def)
	}
}

// Under FailPoison, transitive dependents of a failed task are skipped
// and counted; independent tasks still run.
func TestPoisonSkipsDependents(t *testing.T) {
	rt := New(Config{Workers: 4, OnFailure: FailPoison})
	defer rt.Close()
	x := make([]float32, 8)
	y := make([]float32, 8)
	var ranAfter, ranIndep atomic.Int64
	boom := NewTaskDef("poisonBoom", func(a *Args) { panic("bad") })
	after := NewTaskDef("poisonAfter", func(a *Args) { ranAfter.Add(1) })
	indep := NewTaskDef("poisonIndep", func(a *Args) { ranIndep.Add(1) })

	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Submit(boom, InOut(x))
	const deps = 5
	for i := 0; i < deps; i++ {
		rt.Submit(after, InOut(x))
	}
	rt.Submit(indep, InOut(y))
	if err := rt.Barrier(); err == nil {
		t.Fatal("expected failure at barrier")
	}
	if n := ranAfter.Load(); n != 0 {
		t.Fatalf("%d poisoned dependents ran", n)
	}
	if ranIndep.Load() != 1 {
		t.Fatal("independent task did not run")
	}
	st := rt.Stats()
	if st.Failures != 1 || st.Poisoned != int64(deps) {
		t.Fatalf("Failures = %d, Poisoned = %d, want 1, %d", st.Failures, st.Poisoned, deps)
	}
	// fill + indep executed; boom failed (still executed); dependents skipped.
	if st.TasksExecuted != 3 {
		t.Fatalf("TasksExecuted = %d, want 3", st.TasksExecuted)
	}
	if st.LiveRenamedBytes != 0 {
		t.Fatalf("LiveRenamedBytes = %d after failed drain", st.LiveRenamedBytes)
	}
}

// A dependent submitted after the failed task has already completed
// finds no pending producer to wait on, yet must still be poisoned;
// after the barrier that reports the failure, the data is the
// program's again and new tasks on it run.
func TestPoisonThroughCompletedProducer(t *testing.T) {
	rt := New(Config{Workers: 2, OnFailure: FailPoison})
	defer rt.Close()
	x := make([]float32, 8)
	var ran atomic.Int64
	boom := NewTaskDef("lateBoom", func(a *Args) { panic("bad") })
	after := NewTaskDef("lateAfter", func(a *Args) { ran.Add(1) })

	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Submit(boom, InOut(x))
	if err := rt.WaitOn(x); err == nil {
		t.Fatal("WaitOn: expected the failure")
	}
	// boom has completed: the dependents below add no edge to it.
	// (Reads only, so x is never renamed and keeps boom as its
	// producer across the barrier.)
	y := make([]float32, 8)
	rt.Submit(after, In(x))
	rt.Submit(after, In(x), InOut(y))
	rt.Submit(after, In(y)) // transitively, through a skipped task

	if err := rt.Barrier(); err == nil {
		t.Fatal("expected failure at barrier")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d dependents of a completed poisoned producer ran", n)
	}
	if st := rt.Stats(); st.Poisoned != 3 {
		t.Fatalf("Poisoned = %d, want 3", st.Poisoned)
	}

	rt.ClearErr()
	rt.Submit(after, In(x))
	if err := rt.Barrier(); err != nil {
		t.Fatalf("Barrier after ClearErr = %v", err)
	}
	if ran.Load() != 1 {
		t.Fatal("a task submitted after the reporting barrier was skipped")
	}
}

// The completed-producer case on a renamed object: WaitOn copies the
// failed task's renamed output back into x and restarts x's version
// chain, and the taint must survive that until the barrier.
func TestPoisonSurvivesSyncBack(t *testing.T) {
	rt := New(Config{Workers: 2, OnFailure: FailPoison})
	defer rt.Close()
	x := make([]float32, 8)
	gate := make(chan struct{})
	var ran atomic.Int64
	hold := NewTaskDef("syncHold", func(a *Args) { <-gate })
	boom := NewTaskDef("syncBoom", func(a *Args) { panic("bad") })
	after := NewTaskDef("syncAfter", func(a *Args) { ran.Add(1) })

	rt.Submit(hold, In(x)) // pending reader: boom's write renames x
	rt.Submit(boom, InOut(x))
	close(gate)
	if err := rt.WaitOn(x); err == nil {
		t.Fatal("WaitOn: expected the failure")
	}
	if st := rt.Stats(); st.Renames != 1 || st.SyncBackCopies != 1 {
		t.Fatalf("Renames = %d, SyncBackCopies = %d; want 1, 1", st.Renames, st.SyncBackCopies)
	}
	rt.Submit(after, In(x))
	if err := rt.Barrier(); err == nil {
		t.Fatal("expected failure at barrier")
	}
	if ran.Load() != 0 {
		t.Fatal("a dependent of the synced-back poisoned write ran")
	}
}

// The region-mode form of the completed-producer case: a failed region
// writer taints later overlapping accesses, not disjoint ones, and
// stays in the history until a write that covers it carries the taint
// on.
func TestPoisonThroughCompletedRegionWriter(t *testing.T) {
	rt := New(Config{Workers: 2, OnFailure: FailPoison})
	defer rt.Close()
	x := make([]float32, 16)
	var ran [5]atomic.Bool
	boom := NewTaskDef("lateBoomR", func(a *Args) { panic("bad") })
	mark := NewTaskDef("lateMarkR", func(a *Args) { ran[a.Int(1)].Store(true) })

	rt.Submit(boom, OutR(x, Span(0, 8)))
	if err := rt.WaitOnRegion(x, Span(0, 8)); err == nil {
		t.Fatal("WaitOnRegion: expected the failure")
	}
	rt.Submit(mark, InR(x, Span(4, 8)), Value(0))  // overlaps: poisoned
	rt.Submit(mark, InR(x, Span(8, 8)), Value(1))  // disjoint: runs
	rt.Submit(mark, OutR(x, Span(0, 2)), Value(2)) // overlaps: poisoned
	rt.Submit(mark, InR(x, Span(6, 1)), Value(3))  // boom still recorded: poisoned
	rt.Submit(mark, InR(x, Span(0, 1)), Value(4))  // poisoned via entry 2
	if err := rt.Barrier(); err == nil {
		t.Fatal("expected failure at barrier")
	}
	for i, want := range []bool{false, true, false, false, false} {
		if ran[i].Load() != want {
			t.Fatalf("task %d ran = %v, want %v", i, !want, want)
		}
	}
}

// Poisoned skips must still release pooled rename storage: a write
// chain over a pending reader renames every round, and the skipped
// writers' instances must all return to the store.
func TestPoisonReleasesRenamedStorage(t *testing.T) {
	rt := New(Config{Workers: 2, OnFailure: FailPoison})
	defer rt.Close()
	x := make([]float32, 1024)
	sink := make([]float32, 1024)
	boom := NewTaskDef("renameBoom", func(a *Args) { panic("bad") })
	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Submit(boom, InOut(x))
	for i := 0; i < 50; i++ {
		// Reader + writer on x: the writer renames over the pending
		// reader, then both are poisoned skips.
		rt.Submit(axpyDef, In(x), InOut(sink), Value(1.0))
		rt.Submit(fillDef, Out(x), Value(float64(i)))
	}
	if err := rt.Barrier(); err == nil {
		t.Fatal("expected failure at barrier")
	}
	if live := rt.Stats().LiveRenamedBytes; live != 0 {
		t.Fatalf("LiveRenamedBytes = %d after poisoned drain", live)
	}
}

// The default policy still runs dependents after an Args.Fail failure,
// exactly like the panic path always has.
func TestContinuePolicyRunsDependentsAfterFail(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	x := make([]float32, 1)
	var ran atomic.Bool
	after := NewTaskDef("contAfter", func(a *Args) { ran.Store(true) })
	rt.Submit(failDef, InOut(x))
	rt.Submit(after, InOut(x))
	if err := rt.Barrier(); err == nil {
		t.Fatal("expected failure at barrier")
	}
	if !ran.Load() {
		t.Fatal("dependent did not run under FailContinue")
	}
}

// Cancel unparks a barrier-blocked submitter, drains the queue as
// canceled skips, and leaves a co-tenant on the same pool untouched.
func TestCancelUnparksBarrierAndSparesCoTenant(t *testing.T) {
	pool, err := NewPool(PoolConfig{Workers: 2, MaxContexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	victim, err := pool.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := pool.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}

	slow := NewTaskDef("cancelSlow", func(a *Args) { time.Sleep(2 * time.Millisecond) })
	v := make([]float32, 1)
	for i := 0; i < 400; i++ {
		victim.Submit(slow, InOut(v))
	}
	barErr := make(chan error, 1)
	go func() { barErr <- victim.Barrier() }()
	time.Sleep(5 * time.Millisecond)
	victim.Cancel()

	var got error
	select {
	case got = <-barErr:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled Barrier wedged")
	}
	var ce *CanceledError
	if !errors.As(got, &ce) || ce.Reason != "cancel" {
		t.Fatalf("Barrier err = %v, want CanceledError(cancel)", got)
	}
	if err := victim.Submit(slow, InOut(v)); !errors.As(err, &ce) {
		t.Fatalf("Submit after Cancel = %v, want CanceledError", err)
	}
	st := victim.Stats()
	if st.Canceled == 0 {
		t.Fatal("no tasks drained as canceled skips")
	}
	if st.LiveRenamedBytes != 0 {
		t.Fatalf("LiveRenamedBytes = %d after canceled drain", st.LiveRenamedBytes)
	}
	if err := victim.Close(); !errors.As(err, &ce) {
		t.Fatalf("Close after Cancel = %v, want CanceledError", err)
	}

	// The co-tenant's program is unaffected: full chain, exact result.
	x := make([]float32, 4)
	neighbor.Submit(fillDef, Out(x), Value(1.0))
	for i := 0; i < 10; i++ {
		neighbor.Submit(scaleDef, InOut(x), Value(2.0))
	}
	if err := neighbor.Barrier(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1024 {
		t.Fatalf("co-tenant result = %v, want 1024", x[0])
	}
	if st := neighbor.Stats(); st.TasksExecuted != 11 || st.Canceled != 0 || st.Poisoned != 0 {
		t.Fatalf("co-tenant stats disturbed: %+v", st)
	}
	if err := neighbor.Close(); err != nil {
		t.Fatal(err)
	}
}

// A configured deadline cancels the tenant mid-run with reason
// "deadline".
func TestDeadlineCancelsContext(t *testing.T) {
	pool, err := NewPool(PoolConfig{Workers: 2, MaxContexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := pool.NewContext(ContextConfig{Deadline: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	slow := NewTaskDef("deadlineSlow", func(a *Args) { time.Sleep(2 * time.Millisecond) })
	v := make([]float32, 1)
	for i := 0; i < 500; i++ {
		if err := c.Submit(slow, InOut(v)); err != nil {
			break // deadline already hit mid-submission: fine
		}
	}
	err = c.Barrier()
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Reason != "deadline" {
		t.Fatalf("Barrier err = %v, want CanceledError(deadline)", err)
	}
	if err := c.Close(); !errors.As(err, &ce) {
		t.Fatalf("Close err = %v, want CanceledError", err)
	}
}

// The failure latch is sticky on both APIs and cleared the same way.
func TestErrorLatchSymmetry(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	rt.Submit(failDef)
	if err := rt.Barrier(); err == nil {
		t.Fatal("expected failure")
	}
	if err := rt.Barrier(); err == nil {
		t.Fatal("latch must survive a second Barrier")
	}
	if err := rt.Err(); err == nil {
		t.Fatal("Err lost the latch")
	}
	rt.ClearErr()
	if err := rt.Barrier(); err != nil {
		t.Fatalf("Barrier after ClearErr = %v", err)
	}

	pool, err := NewPool(PoolConfig{Workers: 1, MaxContexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := pool.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Submit(failDef)
	if err := c.Barrier(); err == nil {
		t.Fatal("expected failure")
	}
	if err := c.Barrier(); err == nil {
		t.Fatal("latch must survive a second Barrier")
	}
	c.ClearErr()
	if err := c.Barrier(); err != nil {
		t.Fatalf("Barrier after ClearErr = %v", err)
	}
}

// Drain with cooperative tenants: everyone closes in time, the pool
// shuts down clean.
func TestDrainVoluntary(t *testing.T) {
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 2, MaxContexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ctxs := make([]*Context, 4)
	for k := range ctxs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := pool.NewContext(ContextConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			ctxs[k] = c
			x := make([]float32, 8)
			c.Submit(fillDef, Out(x), Value(float64(k)))
			c.Submit(scaleDef, InOut(x), Value(2.0))
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := pool.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	gate.check(ctxs...)
	// Admissions are refused after Drain; the pool is closed.
	if _, err := pool.NewContext(ContextConfig{}); err == nil {
		t.Fatal("NewContext succeeded on a drained pool")
	}
}

// Drain with a straggler that never closes: past the timeout the
// tenant is canceled, its queue drains as skips, and the pool still
// closes without wedging.
func TestDrainForcesStragglers(t *testing.T) {
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 2, MaxContexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pool.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slow := NewTaskDef("drainSlow", func(a *Args) { time.Sleep(time.Millisecond) })
	v := make([]float32, 1)
	for i := 0; i < 300; i++ {
		c.Submit(slow, InOut(v))
	}
	barErr := make(chan error, 1)
	go func() { barErr <- c.Barrier() }()

	if err := pool.Drain(10 * time.Millisecond); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	var got error
	select {
	case got = <-barErr:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler Barrier wedged through Drain")
	}
	var ce *CanceledError
	if !errors.As(got, &ce) || ce.Reason != "drain" {
		t.Fatalf("straggler Barrier err = %v, want CanceledError(drain)", got)
	}
	if !c.Closed() {
		t.Fatal("straggler not force-closed")
	}
	gate.check(c)
}

// Canceled skips are visible in the trace and round-trip through the
// Paraver writer/parser (covered in trace tests); here: the counters.
func TestCancelStatsOnRuntime(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	slow := NewTaskDef("cancelStatSlow", func(a *Args) { time.Sleep(time.Millisecond) })
	v := make([]float32, 1)
	for i := 0; i < 200; i++ {
		rt.ctx.Submit(slow, InOut(v))
	}
	rt.Cancel()
	err := rt.Barrier()
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("Barrier err = %v, want CanceledError", err)
	}
	st := rt.Stats()
	if st.Canceled == 0 {
		t.Fatal("Stats.Canceled = 0 after cancel")
	}
	if st.Canceled+st.TasksExecuted != st.TasksSubmitted {
		t.Fatalf("executed %d + canceled %d != submitted %d",
			st.TasksExecuted, st.Canceled, st.TasksSubmitted)
	}
}
