package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/deps"
	"repro/internal/graph"
)

// taskKinds hands out one stable small integer per task definition, used
// to color task-graph exports and aggregate trace statistics.
var taskKinds atomic.Int64

// TaskDef is a task declaration: the Go equivalent of a function carrying
// a "#pragma css task" annotation (paper §II).  Define one per task type
// and reuse it for every invocation.
type TaskDef struct {
	// Name is the task's function name, e.g. "sgemm_t".
	Name string
	// Fn is the task body.  It receives accessors for the effective
	// parameter storage; it must not retain them past its return and
	// must touch parameter data only as declared by its directionality.
	Fn func(*Args)
	// HighPriority corresponds to the paper's "highpriority" clause: the
	// task is scheduled as soon as it becomes ready, bypassing the
	// locality lists.
	HighPriority bool

	kind int
}

// NewTaskDef declares a task.
func NewTaskDef(name string, fn func(*Args)) *TaskDef {
	return &TaskDef{Name: name, Fn: fn, kind: int(taskKinds.Add(1))}
}

// NewHighPriorityTaskDef declares a task carrying the highpriority clause.
func NewHighPriorityTaskDef(name string, fn func(*Args)) *TaskDef {
	d := NewTaskDef(name, fn)
	d.HighPriority = true
	return d
}

// Kind returns the definition's stable small-integer identity.
func (d *TaskDef) Kind() int { return d.kind }

// boundArg is one argument after dependency analysis: the effective
// storage the task must use (which may be a renamed instance) plus the
// deferred seed copy for renamed inout parameters.
type boundArg struct {
	kind     argKind
	instance any // for argData: effective storage; for value/opaque: the value
	copyFrom any
}

// taskRec is the runtime's per-task record: one allocation holding the
// graph node, the version holds the dependency tracker acquired for the
// task, and the Args its body receives.  The node's Payload points back
// at the record; the context pointer routes a task popped by a shared
// pool worker back to its owning tenant's accounting.
//
// A completed record outlives its task for as long as a version names
// its node (as producer or reader), so completion empties it (retire):
// it must not pin user data, renamed instances or older versions.
type taskRec struct {
	node  graph.Node
	holds deps.Holds
	call  Args
	def   *TaskDef
	ctx   *Context
	// args is carved from the context's argument slab (see
	// Context.bindArgs).
	args []boundArg
}

// retire empties a completed record: it releases the task's version
// holds and drops its argument bindings and failure cause.
func (r *taskRec) retire() {
	r.ctx.tr.Release(&r.holds)
	clear(r.args)
	r.args = nil
	r.call = Args{}
}

// Args gives a task body access to its effective parameters.  Renaming
// means the storage behind a parameter can differ from the variable
// named at the call site; these accessors are the Go equivalent of the
// parameter rewriting the SMPSs compiler performs on task bodies.
type Args struct {
	rec    *taskRec
	worker int
	failed error
}

// Len returns the number of bound parameters.
func (a *Args) Len() int { return len(a.rec.args) }

// Fail marks the task as failed with err: the body may finish normally,
// but the runtime records a TaskError wrapping err as the context's
// sticky failure (first failure wins), and under OnFailure: FailPoison
// the task's dependents are skipped as poisoned.  Multiple calls keep
// the first non-nil err; Fail(nil) is a no-op.  A panic in the body
// takes precedence over a recorded Fail.
func (a *Args) Fail(err error) {
	if err != nil && a.failed == nil {
		a.failed = err
	}
}

// Worker returns the identity of the executing thread (0 = main thread,
// 1.. = workers), handy for per-thread scratch storage.
func (a *Args) Worker() int { return a.worker }

// Data returns parameter i's effective storage as declared (a slice or
// pointer).  It panics if parameter i is a Value or Opaque argument.
func (a *Args) Data(i int) any {
	b := &a.rec.args[i]
	if b.kind != argData {
		panic(fmt.Sprintf("core: argument %d of %s is not a data parameter", i, a.rec.def.Name))
	}
	return b.instance
}

// F32 returns parameter i as a []float32.
func (a *Args) F32(i int) []float32 { return a.Data(i).([]float32) }

// F64 returns parameter i as a []float64.
func (a *Args) F64(i int) []float64 { return a.Data(i).([]float64) }

// I64 returns parameter i as a []int64.
func (a *Args) I64(i int) []int64 { return a.Data(i).([]int64) }

// I32 returns parameter i as a []int32.
func (a *Args) I32(i int) []int32 { return a.Data(i).([]int32) }

// Ints returns parameter i as a []int.
func (a *Args) Ints(i int) []int { return a.Data(i).([]int) }

// Bytes returns parameter i as a []byte.
func (a *Args) Bytes(i int) []byte { return a.Data(i).([]byte) }

// Value returns parameter i's by-value payload.
func (a *Args) Value(i int) any {
	b := &a.rec.args[i]
	if b.kind != argValue {
		panic(fmt.Sprintf("core: argument %d of %s is not a value parameter", i, a.rec.def.Name))
	}
	return b.instance
}

// Opaque returns parameter i's opaque payload, passed through the runtime
// unaltered like the paper's void* parameters.
func (a *Args) Opaque(i int) any {
	b := &a.rec.args[i]
	if b.kind != argOpaque {
		panic(fmt.Sprintf("core: argument %d of %s is not an opaque parameter", i, a.rec.def.Name))
	}
	return b.instance
}

// Int returns parameter i's value as an int, accepting any integer type.
func (a *Args) Int(i int) int {
	switch v := a.Value(i).(type) {
	case int:
		return v
	case int64:
		return int(v)
	case int32:
		return int(v)
	case uint:
		return int(v)
	case uint64:
		return int(v)
	case uint32:
		return int(v)
	}
	panic(fmt.Sprintf("core: argument %d of %s is not an integer", i, a.rec.def.Name))
}

// Int64 returns parameter i's value as an int64.
func (a *Args) Int64(i int) int64 {
	switch v := a.Value(i).(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case int32:
		return int64(v)
	}
	panic(fmt.Sprintf("core: argument %d of %s is not an integer", i, a.rec.def.Name))
}

// Float returns parameter i's value as a float64, accepting float32 too.
func (a *Args) Float(i int) float64 {
	switch v := a.Value(i).(type) {
	case float64:
		return v
	case float32:
		return float64(v)
	}
	panic(fmt.Sprintf("core: argument %d of %s is not a float", i, a.rec.def.Name))
}
