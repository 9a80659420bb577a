package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitAllocsPerTask pins the per-task allocation budget of the
// Submit → exec → complete path on a warmed context: one allocation
// (the task record) for read-only shapes, plus the new version and the
// predecessor's successor slot for write shapes.  The argument bindings
// come from the context's slab, so they amortize below one allocation.
func TestSubmitAllocsPerTask(t *testing.T) {
	gate := newLeakGate(t)
	p, err := NewPool(PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closeAll(t, p, c)
		gate.check(c)
	}()
	empty := NewTaskDef("empty", func(*Args) {})
	x, y := make([]float32, 4), make([]float32, 4)
	for _, tc := range []struct {
		name string
		args []Arg
		max  float64
	}{
		{"In", []Arg{In(x)}, 1},
		{"In+In", []Arg{In(x), In(y)}, 1},
		{"InOut", []Arg{InOut(x)}, 3},
		{"Out", []Arg{Out(x)}, 3},
		{"In+InOut", []Arg{In(x), InOut(y)}, 3},
	} {
		const tasks = 64
		solve := func() {
			for range tasks {
				if err := c.Submit(empty, tc.args...); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm the tracker's objects, reader lists and the slab
		if got := testing.AllocsPerRun(20, solve) / tasks; got > tc.max {
			t.Errorf("%s: %.2f allocations per task, want <= %v", tc.name, got, tc.max)
		}
	}
}

// finalized is a payload whose collection the retention test observes.
type finalized struct {
	_ [64]byte
}

// TestCompletedRecordsRetainNothing checks that a completed task pins
// none of its arguments.  Its record outlives it for as long as a
// version names it (the objects stay tracked: the last writer is the
// current version's producer, the last reader is on its reader list),
// so completion must drop the Opaque and Value payloads it was bound to.
func TestCompletedRecordsRetainNothing(t *testing.T) {
	gate := newLeakGate(t)
	p, err := NewPool(PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closeAll(t, p, c)
		gate.check(c)
	}()
	def := NewTaskDef("touch", func(a *Args) {
		_ = a.Opaque(1).(*finalized)
		_ = a.Value(2).(*finalized)
	})
	x := make([]float32, 4)
	var collected atomic.Int64
	const tasks = 8
	submit := func(data Arg) {
		op, val := new(finalized), new(finalized)
		runtime.SetFinalizer(op, func(*finalized) { collected.Add(1) })
		runtime.SetFinalizer(val, func(*finalized) { collected.Add(1) })
		if err := c.Submit(def, data, Opaque(op), Value(val)); err != nil {
			t.Fatal(err)
		}
	}
	for range tasks - 1 {
		submit(InOut(x))
	}
	submit(In(x))
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < 2*tasks && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != 2*tasks {
		t.Fatalf("%d of %d task payloads collected after Barrier and GC: completed tasks still pin their arguments", got, 2*tasks)
	}
	runtime.KeepAlive(x)
}
