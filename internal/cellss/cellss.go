// Package cellss models the CellSs scheduling architecture the paper
// descends from and contrasts with in §VII.A, so the architectural
// differences between the two schedulers can be measured:
//
//   - "CellSs has a centralized scheduler that pre-schedules groups of
//     tasks together" — a dedicated scheduler goroutine owns the single
//     ready list and hands each worker a *bundle* of up to Config.Bundle
//     consecutively-ready tasks (on the Cell this is what lets an SPE
//     chain the DMA transfers of related tasks).
//   - "CellSs has a unique queue and does not employ work-stealing" —
//     tasks released by a worker's completions flow back to the central
//     list, never to a per-worker deque, and idle workers wait on the
//     scheduler instead of raiding their peers.
//   - Like SMPSs, CellSs starts executing tasks as soon as they enter the
//     graph (eager execution, unlike SuperMatrix), and it renames data to
//     remove false dependencies.
//   - The main thread (the PPU in CellSs) analyzes dependencies and runs
//     the scheduler; it does not execute task bodies.  Barrier therefore
//     only waits, unlike the SMPSs main thread which turns into a worker.
//
// The programming interface mirrors internal/core so identical algorithms
// run under both models; internal/bench compares them head-to-head.
package cellss

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataid"
	"repro/internal/deps"
	"repro/internal/graph"
)

// DefaultBundle is the pre-scheduling group size used when Config.Bundle
// is zero.  CellSs groups a handful of ready tasks per SPE dispatch.
const DefaultBundle = 4

// Config parameterizes a Runtime.
type Config struct {
	// Workers is the number of task-executing threads (the SPE
	// analogues).  Zero means 1.  The main thread is not one of them.
	Workers int
	// Bundle is the maximum number of tasks pre-scheduled to a worker as
	// one group.  Zero means DefaultBundle.
	Bundle int
}

// TaskDef declares a task type, mirroring core.TaskDef.
type TaskDef struct {
	// Name labels the task in errors and statistics.
	Name string
	// Fn is the task body.  Renaming means the storage behind a
	// parameter can differ from the variable named at the call site, so
	// bodies access parameters through *Args.
	Fn func(*Args)
}

// NewTaskDef declares a task.
func NewTaskDef(name string, fn func(*Args)) *TaskDef {
	return &TaskDef{Name: name, Fn: fn}
}

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

// Out declares data the task completely overwrites.  The runtime may hand
// the task a renamed, uninitialized instance.
func Out(data any) Arg { return Arg{kind: argData, mode: deps.ModeOut, data: data} }

// InOut declares data the task reads and writes.
func InOut(data any) Arg { return Arg{kind: argData, mode: deps.ModeInOut, data: data} }

// Value passes v by value without dependency analysis.
func Value(v any) Arg { return Arg{kind: argValue, data: v} }

// boundArg is one argument after dependency analysis.
type boundArg struct {
	kind     argKind
	instance any
	copyFrom any
	copyFn   func(dst, src any)
}

// taskRec is the payload attached to each graph node.
type taskRec struct {
	def  *TaskDef
	args []boundArg
}

// Args gives a task body access to its effective (possibly renamed)
// parameters.
type Args struct {
	rec    *taskRec
	worker int
}

// Len returns the number of bound parameters.
func (a *Args) Len() int { return len(a.rec.args) }

// Worker returns the executing worker's identity (0..Workers-1).
func (a *Args) Worker() int { return a.worker }

// Data returns parameter i's effective storage.
func (a *Args) Data(i int) any {
	b := &a.rec.args[i]
	if b.kind != argData {
		panic(fmt.Sprintf("cellss: argument %d of %s is not a data parameter", i, a.rec.def.Name))
	}
	return b.instance
}

// F32 returns parameter i as a []float32.
func (a *Args) F32(i int) []float32 { return a.Data(i).([]float32) }

// Value returns parameter i's by-value payload.
func (a *Args) Value(i int) any {
	b := &a.rec.args[i]
	if b.kind != argValue {
		panic(fmt.Sprintf("cellss: argument %d of %s is not a value parameter", i, a.rec.def.Name))
	}
	return b.instance
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
	panic(fmt.Sprintf("cellss: argument %d of %s is not an integer", i, a.rec.def.Name))
}

// Stats aggregates runtime activity.
type Stats struct {
	// TasksSubmitted and TasksExecuted count task instances.
	TasksSubmitted int64
	TasksExecuted  int64
	// Deps is the dependency tracker's view (renames happen here, as in
	// SMPSs).
	Deps deps.Stats
	// Bundles counts groups dispatched to workers; BundledTasks counts
	// the tasks inside them (BundledTasks/Bundles is the mean group
	// size the pre-scheduler achieved).
	Bundles      int64
	BundledTasks int64
	// SyncBackCopies counts renamed objects copied back at barriers.
	SyncBackCopies int64
	// LiveRenamedBytes is the renamed storage currently alive in this
	// runtime's tracker — zero after a barrier on a drained graph.
	LiveRenamedBytes int64
}

// Runtime is one CellSs-model runtime instance.
//
// Since the shared-pool re-host, the model no longer owns worker
// threads: the central ready list and the pre-scheduler live here, but
// dispatch happens by submitting opaque *bundle tickets* to a
// core.Context, and the pool's workers execute them.  A dedicated pump
// goroutine is the context's single submitter (the context contract
// forbids submitting from task bodies), and the tracker recycles
// renamed storage through the pool's shared store.  The main thread
// (the PPU) still only analyzes dependencies and waits at barriers; it
// never executes task bodies.
type Runtime struct {
	cfg Config
	g   *graph.Graph
	tr  *deps.Tracker

	ctx     *core.Context // the model's tenant context; the pump submits to it
	ownPool *core.Pool    // non-nil when New built a private pool

	mu   sync.Mutex
	pump *sync.Cond // signaled when tickets are owed or the runtime closes
	idle *sync.Cond // signaled when outstanding work drains

	ready   []*graph.Node
	owed    int // bundle tickets not yet submitted by the pump
	closed  bool
	aborted bool // the context refused a ticket; bundles stopped running

	outstanding int64
	submitted   int64
	executed    int64
	bundles     int64
	bundled     int64
	syncCopies  int64
	firstErr    error

	pumpDone chan struct{}
}

// bundleTicket is the opaque no-dependency task the pump submits per
// ready task: a pool worker running one takes a pre-scheduled bundle
// from the central list (or finds it already drained and returns).
var bundleTicket = core.NewTaskDef("cellss_bundle", func(a *core.Args) {
	a.Opaque(0).(*Runtime).runBundle(a.Worker())
})

// New creates and starts a runtime on a private worker pool — the
// single-tenant constructor, now a thin wrapper over NewOn.  The caller
// must eventually call Close to release the workers.
func New(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// All configured workers are dedicated (the PPU never executes task
	// bodies), so the private pool carries them all; the single context
	// slot belongs to the pump.
	pool, err := core.NewPool(core.PoolConfig{Workers: cfg.Workers, MaxContexts: 1})
	if err != nil {
		panic(err)
	}
	rt, err := NewOn(pool, cfg)
	if err != nil {
		panic(err)
	}
	rt.ownPool = pool
	return rt
}

// NewOn attaches a CellSs-model runtime to a shared pool as one tenant:
// it takes one context slot and submits bundle tickets that the pool's
// workers execute alongside every other tenant's tasks.  Close detaches
// the tenant; the pool itself stays up.
func NewOn(pool *core.Pool, cfg Config) (*Runtime, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = pool.Workers()
	}
	if cfg.Bundle <= 0 {
		cfg.Bundle = DefaultBundle
	}
	// The context carries opaque tickets only, so its own tracker and
	// throttle stay out of the way: the central-queue policy mirrors the
	// model's unique ready list, and the pump must never be forced to
	// execute tickets itself (GraphLimit < 0 disables throttling).
	ctx, err := pool.NewContext(core.ContextConfig{
		Scheduler:  core.SchedGlobalFIFO,
		GraphLimit: -1,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, ctx: ctx, pumpDone: make(chan struct{})}
	rt.pump = sync.NewCond(&rt.mu)
	rt.idle = sync.NewCond(&rt.mu)
	rt.g = graph.New(rt.onReady)
	rt.tr = deps.NewTracker(rt.g)
	rt.tr.ShareStorage(pool.Storage())
	go rt.pumpLoop()
	return rt, nil
}

// Workers returns the configured worker count.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return Stats{
		TasksSubmitted:   rt.submitted,
		TasksExecuted:    rt.executed,
		Deps:             rt.tr.Stats(),
		Bundles:          rt.bundles,
		BundledTasks:     rt.bundled,
		SyncBackCopies:   rt.syncCopies,
		LiveRenamedBytes: rt.tr.LiveRenamedBytes(),
	}
}

// Err returns the first task failure (panic) observed, or nil.
func (rt *Runtime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.firstErr
}

// Submit invokes a task: dependencies are analyzed on the main thread,
// renaming removes WAR/WAW hazards, and the task starts executing as soon
// as its inputs are satisfied (eager, like SMPSs; unlike SuperMatrix).
func (rt *Runtime) Submit(def *TaskDef, args ...Arg) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("cellss: Submit on closed runtime")
	}
	rt.submitted++
	rt.outstanding++
	rt.mu.Unlock()

	rec := &taskRec{def: def, args: make([]boundArg, len(args))}
	node := rt.g.AddNode(0, def.Name, false, rec)
	node.Payload = rec
	for i, a := range args {
		if a.kind == argValue {
			rec.args[i] = boundArg{kind: argValue, instance: a.data}
			continue
		}
		res := rt.tr.Analyze(node, deps.Access{
			Key:  dataid.Key(a.data),
			Mode: a.mode,
			Data: a.data,
			Copy: dataid.CopyInto,
		})
		rec.args[i] = boundArg{
			kind:     argData,
			instance: res.Instance,
			copyFrom: res.CopyFrom,
			copyFn:   res.Copy,
		}
	}
	rt.g.Seal(node)
}

// onReady funnels every ready task into the unique central list —
// regardless of which worker released it (no per-worker locality lists,
// no stealing) — and owes the pump one bundle ticket for it.  Tickets
// may outnumber the bundles actually taken (an early ticket can drain
// several ready tasks at once); the surplus tickets find the list empty
// and return without counting a bundle.
func (rt *Runtime) onReady(n *graph.Node, releasedBy int) {
	rt.mu.Lock()
	rt.ready = append(rt.ready, n)
	rt.owed++
	rt.mu.Unlock()
	rt.pump.Signal()
}

// pumpLoop is the context's single submitter: it converts owed tickets
// into context submissions until Close, then closes the context (the
// implicit context barrier drains any surplus no-op tickets).
func (rt *Runtime) pumpLoop() {
	defer close(rt.pumpDone)
	dead := false // the context refused a ticket; no more will be accepted
	for {
		rt.mu.Lock()
		for rt.owed == 0 && !rt.closed {
			rt.pump.Wait()
		}
		n := rt.owed
		rt.owed = 0
		closed := rt.closed
		rt.mu.Unlock()
		for i := 0; i < n && !dead; i++ {
			if err := rt.ctx.Submit(bundleTicket, core.Opaque(rt)); err != nil {
				rt.abortBundles(err)
				dead = true
			}
		}
		if closed && n == 0 {
			rt.ctx.Close()
			return
		}
	}
}

// abortBundles handles a refused bundle ticket (the context was closed
// or its tenant canceled): unlike the task-pool and cilk hosts, cellss
// bundles run only on pool tickets — the PPU never executes task
// bodies — so once tickets stop being accepted the pre-scheduled
// bundles will never run and Barrier would wedge on outstanding work.
// The pump (the context's single submitter) first barriers the context
// so every accepted ticket has finished, then latches the refusal and
// releases the barrier waiters.
func (rt *Runtime) abortBundles(err error) {
	// Quiesce: after Barrier returns, no accepted bundle ticket is
	// running and none is coming (this goroutine is the only submitter).
	if berr := rt.ctx.Barrier(); berr != nil && err == nil {
		err = berr
	}
	rt.mu.Lock()
	if rt.firstErr == nil {
		rt.firstErr = err
	}
	rt.aborted = true
	rt.mu.Unlock()
	rt.idle.Broadcast()
}

// runBundle is a ticket body executing on a pool worker: take one
// pre-scheduled group from the central list and run it.
func (rt *Runtime) runBundle(worker int) {
	rt.mu.Lock()
	if len(rt.ready) == 0 {
		rt.mu.Unlock()
		return
	}
	bundle := rt.takeBundle()
	rt.mu.Unlock()
	for _, n := range bundle {
		rt.exec(n, worker)
	}
}

// takeBundle pops up to Bundle consecutively-ready tasks for one worker:
// the pre-scheduled group.  Caller holds rt.mu.
func (rt *Runtime) takeBundle() []*graph.Node {
	k := rt.cfg.Bundle
	if k > len(rt.ready) {
		k = len(rt.ready)
	}
	b := make([]*graph.Node, k)
	copy(b, rt.ready[:k])
	rt.ready = rt.ready[k:]
	rt.bundles++
	rt.bundled += int64(k)
	return b
}

func (rt *Runtime) exec(n *graph.Node, self int) {
	rt.g.MarkRunning(n)
	rec := n.Payload.(*taskRec)
	for i := range rec.args {
		if b := &rec.args[i]; b.copyFrom != nil {
			b.copyFn(b.instance, b.copyFrom)
			b.copyFrom = nil
		}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				rt.mu.Lock()
				if rt.firstErr == nil {
					rt.firstErr = fmt.Errorf("cellss: task %s (#%d) panicked: %v", rec.def.Name, n.ID, r)
				}
				rt.mu.Unlock()
			}
		}()
		rec.def.Fn(&Args{rec: rec, worker: self})
	}()
	rt.g.Complete(n, self)

	rt.mu.Lock()
	rt.executed++
	rt.outstanding--
	done := rt.outstanding == 0
	rt.mu.Unlock()
	if done {
		rt.idle.Broadcast()
	}
}

// Barrier blocks until every submitted task has completed.  The main
// thread only waits (the PPU does not run task bodies).  On return, data
// whose current contents live in renamed storage have been copied back,
// and the first task failure (if any) is returned.
func (rt *Runtime) Barrier() error {
	rt.mu.Lock()
	for rt.outstanding > 0 && !rt.aborted {
		rt.idle.Wait()
	}
	rt.mu.Unlock()
	n := rt.tr.SyncAll()
	rt.mu.Lock()
	rt.syncCopies += int64(n)
	err := rt.firstErr
	rt.mu.Unlock()
	return err
}

// Close waits for outstanding work (an implicit barrier), then stops
// the pump and detaches the runtime's context from its pool — and, when
// New built a private pool, shuts that pool down too.  The runtime must
// not be used afterwards.
func (rt *Runtime) Close() error {
	err := rt.Barrier()
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	rt.pump.Signal()
	<-rt.pumpDone
	if rt.ownPool != nil {
		if perr := rt.ownPool.Close(); err == nil {
			err = perr
		}
	}
	return err
}
