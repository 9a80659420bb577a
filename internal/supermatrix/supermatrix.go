// Package supermatrix reproduces the SuperMatrix execution model that the
// paper compares against in §VII.C, so the architectural claims of that
// section can be measured rather than just cited:
//
//   - "SuperMatrix first develops the whole graph, and then stops the main
//     flow execution until the graph has been fully consumed" — Submit
//     only builds the graph; nothing executes until Execute, which blocks
//     the main flow until the graph drains.
//   - "SuperMatrix has a central ready queue" — there is one shared ready
//     list; workers have no private deques and never steal.
//   - "its locality approach is based on assigning each block to one core
//     and run tasks that write to that block only on the assigned core.
//     This assignment is performed independently of task dependencies" —
//     every data object is bound to an owner core (round-robin at first
//     write, i.e. block-cyclic in first-write order); a ready task that
//     writes an owned block is runnable only on that owner.
//   - "SuperMatrix does not support renaming" — WAR and WAW hazards become
//     real edges (the dependency tracker runs with renaming disabled).
//
// The programming interface mirrors internal/core (task definitions,
// In/Out/InOut/Value arguments) so the same algorithms can be expressed
// under both models and compared head-to-head (the ablation benchmarks in
// internal/bench do exactly that).
package supermatrix

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataid"
	"repro/internal/deps"
	"repro/internal/graph"
)

// Config parameterizes a Runtime.
type Config struct {
	// Workers is the number of threads consuming the graph during
	// Execute.  Zero means 1.
	Workers int
}

// TaskDef declares a task type, mirroring core.TaskDef.
type TaskDef struct {
	// Name labels the task in errors and statistics.
	Name string
	// Fn is the task body; it receives accessors for the parameter
	// storage bound at submission.
	Fn func(*Args)
}

// NewTaskDef declares a task.
func NewTaskDef(name string, fn func(*Args)) *TaskDef {
	return &TaskDef{Name: name, Fn: fn}
}

// argKind distinguishes argument flavors.
type argKind uint8

const (
	argData argKind = iota
	argValue
)

// Arg is one bound task parameter.
type Arg struct {
	kind argKind
	mode deps.Mode
	data any
}

// In declares data the task only reads.
func In(data any) Arg { return Arg{kind: argData, mode: deps.ModeIn, data: data} }

// Out declares data the task completely overwrites.
func Out(data any) Arg { return Arg{kind: argData, mode: deps.ModeOut, data: data} }

// InOut declares data the task reads and writes.
func InOut(data any) Arg { return Arg{kind: argData, mode: deps.ModeInOut, data: data} }

// Value passes v by value without dependency analysis.
func Value(v any) Arg { return Arg{kind: argValue, data: v} }

// Args gives a task body access to its parameters.  SuperMatrix never
// renames, so the storage is always exactly what the caller named.
type Args struct {
	rec    *taskRec
	worker int
}

// Len returns the number of bound parameters.
func (a *Args) Len() int { return len(a.rec.args) }

// Worker returns the executing worker's identity (0..Workers-1).
func (a *Args) Worker() int { return a.worker }

// Data returns parameter i's storage.
func (a *Args) Data(i int) any {
	b := a.rec.args[i]
	if b.kind != argData {
		panic(fmt.Sprintf("supermatrix: argument %d of %s is not a data parameter", i, a.rec.def.Name))
	}
	return b.data
}

// F32 returns parameter i as a []float32.
func (a *Args) F32(i int) []float32 { return a.Data(i).([]float32) }

// Value returns parameter i's by-value payload.
func (a *Args) Value(i int) any {
	b := a.rec.args[i]
	if b.kind != argValue {
		panic(fmt.Sprintf("supermatrix: argument %d of %s is not a value parameter", i, a.rec.def.Name))
	}
	return b.data
}

// Int returns parameter i's value as an int.
func (a *Args) Int(i int) int {
	switch v := a.Value(i).(type) {
	case int:
		return v
	case int64:
		return int(v)
	case int32:
		return int(v)
	}
	panic(fmt.Sprintf("supermatrix: argument %d of %s is not an integer", i, a.rec.def.Name))
}

// taskRec is the payload attached to each graph node.
type taskRec struct {
	def   *TaskDef
	args  []Arg
	owner int // owning core, or -1 when the task writes no owned block
}

// Stats aggregates runtime activity.
type Stats struct {
	// TasksSubmitted and TasksExecuted count task instances.
	TasksSubmitted int64
	TasksExecuted  int64
	// Deps is the tracker's view.  FalseEdges counts the WAR/WAW hazards
	// materialized as edges because SuperMatrix does not rename.
	Deps deps.Stats
	// OwnerRuns counts tasks executed on the core owning their first
	// written block; UnownedRuns counts tasks with no written block.
	OwnerRuns   int64
	UnownedRuns int64
	// Owners is the number of distinct block→core assignments made.
	Owners int64
}

// Runtime is one SuperMatrix-model runtime instance.
//
// Like the system it models, it is strictly phase-based: the main flow
// calls Submit repeatedly (building the whole graph without running
// anything), then Execute (which consumes the graph to completion).
// Submit must not be called concurrently with Execute.
//
// Since the shared-pool re-host the model owns no worker threads.
// Execution happens on a core.Context: the blocked Execute caller is
// the context's single submitter, and the Workers configuration names
// *virtual cores* — block ownership binds blocks to virtual cores, and
// at most one ticket per virtual core is in flight at a time, so each
// core's owned work still runs serially on exactly one thread, with no
// stealing, exactly as the private per-core lists did.  New runs each
// Execute phase on a private ephemeral pool (preserving "no worker
// threads exist until Execute"); NewOn attaches the model to a shared
// pool as one tenant.
type Runtime struct {
	cfg Config
	g   *graph.Graph
	tr  *deps.Tracker

	host *core.Context // persistent tenant context (NewOn), or nil

	mu     sync.Mutex
	cond   *sync.Cond
	owned  [][]*graph.Node // per-core ready lists (owner-bound tasks)
	shared []*graph.Node   // ready tasks that write no owned block
	owners map[uintptr]int
	next   int // round-robin cursor for owner assignment

	ownedBusy  []bool // a ticket is in flight for this virtual core
	sharedOwed int    // shared tasks not yet covered by a ticket
	inFlight   int    // tickets submitted and not yet finished

	outstanding int64
	submitted   int64
	executed    int64
	ownerRuns   int64
	unownedRuns int64

	firstErr error
}

// New creates a runtime.  No worker threads exist until Execute.
func New(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	rt := &Runtime{
		cfg:       cfg,
		owned:     make([][]*graph.Node, cfg.Workers),
		ownedBusy: make([]bool, cfg.Workers),
		owners:    make(map[uintptr]int),
	}
	rt.cond = sync.NewCond(&rt.mu)
	rt.g = graph.New(rt.onReady)
	rt.tr = deps.NewTracker(rt.g)
	rt.tr.DisableRenaming = true // SuperMatrix does not support renaming
	return rt
}

// NewOn attaches a SuperMatrix-model runtime to a shared pool as one
// tenant: Execute phases run by submitting tickets to one context
// instead of spinning up private threads.  Workers still sets the
// virtual-core count for block ownership (zero picks the pool's worker
// count).  NewOn, Submit, Execute and Close must all be called from the
// same goroutine (the context is single-submitter); call Close to
// release the context slot.
func NewOn(pool *core.Pool, cfg Config) (*Runtime, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = pool.Workers()
	}
	rt := New(cfg)
	ctx, err := pool.NewContext(core.ContextConfig{
		Scheduler:  core.SchedGlobalFIFO, // "SuperMatrix has a central ready queue"
		GraphLimit: -1,                   // the driver must never execute tickets inline
	})
	if err != nil {
		return nil, err
	}
	rt.host = ctx
	return rt, nil
}

// Close detaches a NewOn runtime's context from its pool.  On a private
// (New) runtime it is a no-op: those own no persistent resources.
func (rt *Runtime) Close() error {
	if rt.host == nil {
		return nil
	}
	err := rt.host.Close()
	rt.host = nil
	if err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.firstErr
}

// Workers returns the configured worker count.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Stats returns a snapshot of the runtime's counters.  Call it between
// phases (not during Execute).
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return Stats{
		TasksSubmitted: rt.submitted,
		TasksExecuted:  rt.executed,
		Deps:           rt.tr.Stats(),
		OwnerRuns:      rt.ownerRuns,
		UnownedRuns:    rt.unownedRuns,
		Owners:         int64(len(rt.owners)),
	}
}

// ownerOf returns the core owning the block at key, assigning one
// round-robin on first sight.  Caller holds rt.mu.
func (rt *Runtime) ownerOf(key uintptr) int {
	if o, ok := rt.owners[key]; ok {
		return o
	}
	o := rt.next % rt.cfg.Workers
	rt.next++
	rt.owners[key] = o
	return o
}

// Submit adds one task invocation to the graph.  Nothing executes until
// Execute is called: this is the "first develops the whole graph" half of
// the SuperMatrix model.
func (rt *Runtime) Submit(def *TaskDef, args ...Arg) {
	rec := &taskRec{def: def, args: args, owner: -1}
	node := rt.g.AddNode(0, def.Name, false, rec)
	node.Payload = rec

	rt.mu.Lock()
	for _, a := range args {
		if a.kind != argData {
			continue
		}
		key := dataid.Key(a.data)
		if a.mode.Writes() && rec.owner < 0 {
			// Block→core assignment, independent of dependencies: the
			// task runs on the core owning the first block it writes.
			rec.owner = rt.ownerOf(key)
		}
	}
	rt.submitted++
	rt.outstanding++
	rt.mu.Unlock()

	for _, a := range args {
		if a.kind != argData {
			continue
		}
		rt.tr.Analyze(node, deps.Access{
			Key:  dataid.Key(a.data),
			Mode: a.mode,
			Data: a.data,
			Copy: dataid.CopyInto,
		})
	}
	rt.g.Seal(node)
}

// onReady queues a task whose dependencies are satisfied.  During the
// Submit phase this only accumulates state; Execute drains it by
// submitting tickets.
func (rt *Runtime) onReady(n *graph.Node, releasedBy int) {
	rec := n.Payload.(*taskRec)
	rt.mu.Lock()
	if rec.owner >= 0 {
		rt.owned[rec.owner] = append(rt.owned[rec.owner], n)
	} else {
		rt.shared = append(rt.shared, n)
		rt.sharedOwed++
	}
	rt.mu.Unlock()
	rt.cond.Broadcast()
}

// ownedTicket drains one virtual core's owned list serially; at most
// one is in flight per core, which is exactly the old per-core worker.
var ownedTicket = core.NewTaskDef("supermatrix_owned", func(a *core.Args) {
	a.Opaque(0).(*Runtime).runOwned(a.Int(1))
})

// sharedTicket runs at most one unowned task; Execute submits one per
// queued shared task, so surplus tickets are harmless no-ops.
var sharedTicket = core.NewTaskDef("supermatrix_shared", func(a *core.Args) {
	a.Opaque(0).(*Runtime).runShared(a.Worker())
})

// Execute consumes the developed graph: it submits tickets to the
// execution context, blocks the main flow until every submitted task
// has completed, and returns the first task failure (if any).  The
// runtime may then be used for another Submit/Execute phase.
//
// A NewOn runtime executes on its tenant context; a New runtime builds
// a private pool for the duration of the phase — matching the original
// model, where worker threads exist only while Execute runs.
func (rt *Runtime) Execute() error {
	ctx := rt.host
	var pool *core.Pool
	if ctx == nil {
		p, err := core.NewPool(core.PoolConfig{Workers: rt.cfg.Workers, MaxContexts: 1})
		if err != nil {
			return err
		}
		c, err := p.NewContext(core.ContextConfig{
			Scheduler:  core.SchedGlobalFIFO,
			GraphLimit: -1,
		})
		if err != nil {
			p.Close()
			return err
		}
		pool, ctx = p, c
	}
	rt.drive(ctx)
	if pool != nil {
		ctx.Close()
		pool.Close()
	}
	rt.mu.Lock()
	err := rt.firstErr
	rt.mu.Unlock()
	return err
}

// drive is the heart of the Execute phase: the blocked main flow acts
// as the context's single submitter, covering every ready task with a
// ticket — one in-flight ticket per virtual core with owned work, one
// per queued shared task — until the graph drains and every ticket has
// finished (so no ticket still references this runtime after return).
func (rt *Runtime) drive(ctx *core.Context) {
	for {
		rt.mu.Lock()
		if rt.outstanding == 0 && rt.inFlight == 0 {
			rt.mu.Unlock()
			return
		}
		var ownedStart []int
		for v := range rt.owned {
			if len(rt.owned[v]) > 0 && !rt.ownedBusy[v] {
				rt.ownedBusy[v] = true
				rt.inFlight++
				ownedStart = append(ownedStart, v)
			}
		}
		sharedStart := rt.sharedOwed
		rt.sharedOwed = 0
		rt.inFlight += sharedStart
		if len(ownedStart) == 0 && sharedStart == 0 {
			rt.cond.Wait()
			rt.mu.Unlock()
			continue
		}
		rt.mu.Unlock()
		for _, v := range ownedStart {
			if err := ctx.Submit(ownedTicket, core.Opaque(rt), core.Value(v)); err != nil {
				rt.abortDrive(ctx, err)
				return
			}
		}
		for i := 0; i < sharedStart; i++ {
			if err := ctx.Submit(sharedTicket, core.Opaque(rt)); err != nil {
				rt.abortDrive(ctx, err)
				return
			}
		}
	}
}

// abortDrive handles a refused ticket (the context was closed or its
// tenant canceled; every later submission would be refused the same
// way).  drive pre-accounts inFlight and ownedBusy before submitting,
// so a refusal strands accounting for tickets that will never run and
// would wedge drive on cond.Wait forever.  The blocked main flow is
// the context's single submitter, so once Barrier returns every
// accepted ticket has finished and no pool worker references this
// runtime; the stranded accounting can then be dropped safely.  The
// unexecuted remainder of the graph stays put: Execute surfaces the
// refusal as its error.
func (rt *Runtime) abortDrive(ctx *core.Context, err error) {
	if berr := ctx.Barrier(); berr != nil && err == nil {
		err = berr
	}
	rt.mu.Lock()
	if rt.firstErr == nil {
		rt.firstErr = err
	}
	rt.inFlight = 0
	for v := range rt.ownedBusy {
		rt.ownedBusy[v] = false
	}
	rt.mu.Unlock()
}

// runOwned is an owned ticket's body on a pool worker: it drains
// virtual core v's ready list serially — the ownership filter means no
// other thread ever runs these tasks concurrently.
func (rt *Runtime) runOwned(v int) {
	for {
		rt.mu.Lock()
		if len(rt.owned[v]) == 0 {
			rt.ownedBusy[v] = false
			rt.inFlight--
			rt.mu.Unlock()
			rt.cond.Broadcast()
			return
		}
		n := rt.owned[v][0]
		rt.owned[v] = rt.owned[v][1:]
		rt.mu.Unlock()
		rt.exec(n, v, true)
	}
}

// runShared is a shared ticket's body: pop at most one unowned task.
func (rt *Runtime) runShared(worker int) {
	rt.mu.Lock()
	var n *graph.Node
	if len(rt.shared) > 0 {
		n, rt.shared = rt.shared[0], rt.shared[1:]
	}
	rt.mu.Unlock()
	if n != nil {
		rt.exec(n, worker, false)
	}
	rt.mu.Lock()
	rt.inFlight--
	rt.mu.Unlock()
	rt.cond.Broadcast()
}

func (rt *Runtime) exec(n *graph.Node, self int, owned bool) {
	rt.g.MarkRunning(n)
	rec := n.Payload.(*taskRec)
	func() {
		defer func() {
			if r := recover(); r != nil {
				rt.mu.Lock()
				if rt.firstErr == nil {
					rt.firstErr = fmt.Errorf("supermatrix: task %s (#%d) panicked: %v", rec.def.Name, n.ID, r)
				}
				rt.mu.Unlock()
			}
		}()
		rec.def.Fn(&Args{rec: rec, worker: self})
	}()
	rt.g.Complete(n, self)

	rt.mu.Lock()
	rt.executed++
	if owned {
		rt.ownerRuns++
	} else {
		rt.unownedRuns++
	}
	rt.outstanding--
	done := rt.outstanding == 0
	rt.mu.Unlock()
	if done {
		rt.cond.Broadcast()
	}
}
