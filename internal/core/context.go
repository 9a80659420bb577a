package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataid"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// FailurePolicy selects what happens to the dependents of a failed
// task (a body that panicked or called Args.Fail).
type FailurePolicy int

const (
	// FailContinue (the default) runs dependents of a failed task
	// anyway: the failure is latched and reported at the next
	// Barrier/WaitOn/Close, but the graph keeps executing.  Dependents
	// may read garbage data — this is the seed runtime's behavior.
	FailContinue FailurePolicy = iota
	// FailPoison skips the transitive dependents of a failed task:
	// each is completed without running its body (so edges, refcounts
	// and pooled rename storage still drain) and counted in
	// Stats.Poisoned.  A dependent is skipped even when the failed task
	// completed before the dependent was submitted, until the next
	// Barrier, which reports the failure and hands the data back to the
	// program.
	FailPoison
)

// String returns the policy name.
func (p FailurePolicy) String() string {
	switch p {
	case FailContinue:
		return "continue"
	case FailPoison:
		return "poison"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ContextConfig parameterizes one Context on a shared pool.  The fields
// mirror the graph-state half of Config; worker and context counts
// live in PoolConfig.
type ContextConfig struct {
	// Scheduler selects the context's scheduling policy; default
	// SchedLocality.  Each context has its own policy instance, so
	// tenants with different policies can share one pool.
	Scheduler SchedulerKind
	// Locality gates this context's locality layer (affinity hints and
	// successor chaining; see Config.Locality).  Per-context: tenants
	// with and without it coexist on one pool.
	Locality LocalityConfig
	// DisableRenaming turns off the renaming engine, materializing
	// WAR/WAW hazards as real edges (ablation).
	DisableRenaming bool
	// GraphLimit bounds the number of open (submitted, not completed)
	// tasks before Submit throttles.  Zero selects DefaultGraphLimit;
	// negative disables throttling.
	GraphLimit int
	// TrackerShards sets the dependency tracker's lock-stripe count
	// (see Config.TrackerShards).
	TrackerShards int
	// MemoryLimit bounds the bytes of live renamed storage belonging to
	// this context; when exceeded, the submitting thread executes tasks
	// until renamed memory is released (paper §III).  Zero disables the
	// limit.  The limit is per-context even though the recycling store
	// behind it is shared.
	MemoryLimit int64
	// Tracer, when non-nil, records task lifecycle events.  A tracer
	// may be shared by several contexts; events carry the context id.
	Tracer *trace.Tracer
	// Recorder, when non-nil, retains the full task graph for export.
	Recorder *graph.Recorder
	// OnFailure selects the fate of a failed task's dependents:
	// FailContinue (default, run them anyway) or FailPoison (skip and
	// count them).
	OnFailure FailurePolicy
	// Deadline, when positive, cancels the context that long after
	// creation exactly as Context.Cancel would: remaining tasks drain
	// as canceled skips and Barrier/WaitOn/Close return a
	// CanceledError.  Zero means no deadline.
	Deadline time.Duration
}

// Context is one tenant of a shared Pool: a task graph, a dependency
// tracker, barrier/WaitOn state, graph- and memory-limit throttling,
// statistics and an optional tracer.  Contexts are independent — a
// barrier in one context never waits on another context's tasks, and
// counters never bleed between contexts — while their ready tasks are
// served by the pool's workers under round-robin fair dispatch.
//
// The single-submitter contract: each Context belongs to exactly one
// submitting goroutine.  All calls to Submit, SubmitBatch, Batch
// methods, Barrier, WaitOn and Close must come from that goroutine;
// task bodies run on the pool's workers and must not submit to any
// context.  Different contexts may submit concurrently from different
// goroutines — that is the point of the pool — but one context must
// never be driven from two.
type Context struct {
	pool *Pool
	cfg  ContextConfig
	// slot is the submitter's worker identity (== the context's slot in
	// the pool's context table, below MaxContexts).
	slot int
	// id is the context's stable trace identity, unique for the life of
	// the pool (slots are recycled; ids are not).
	id int

	g     *graph.Graph
	tr    *deps.Tracker
	q     *sched.Client
	tracr *trace.Tracer

	outstanding atomic.Int64
	submitted   atomic.Int64
	executed    atomic.Int64
	mainHelped  atomic.Int64
	syncCopies  atomic.Int64
	waiters     atomic.Int64
	chainHits   atomic.Int64
	failures    atomic.Int64
	poisonSkips atomic.Int64
	cancelSkips atomic.Int64

	// errMu guards the two sticky error latches.  firstErr is the first
	// task failure (clearable with ClearErr); cancelErr is set once by
	// cancel and never cleared.  cancelErr is always stored before the
	// canceled flag, so any reader that observes the flag finds the
	// error.
	errMu     sync.Mutex
	firstErr  error
	cancelErr error

	canceled atomic.Bool
	closed   atomic.Bool
	// deadline is the ContextConfig.Deadline timer, stopped at Close.
	deadline *time.Timer

	// Submission scratch reused across Submit/SubmitBatch calls to keep
	// the per-task tracker entry allocation-free.  Guarded by the
	// single-submitter contract.
	accBuf []deps.Access
	resBuf []deps.Resolution
	ixBuf  []int
	// argSlab is the unused tail of the current argument chunk that
	// bindArgs carves task records' bindings from.
	argSlab []boundArg
}

// argSlabChunk is the number of bindings one argument chunk holds.
const argSlabChunk = 256

// NewContext attaches a new context to the pool.  It returns a
// ClosedError if the pool is closed and a ConfigError if every context
// slot is in use.
func (p *Pool) NewContext(cfg ContextConfig) (*Context, error) {
	if cfg.GraphLimit == 0 {
		cfg.GraphLimit = DefaultGraphLimit
	}
	c := &Context{pool: p, cfg: cfg, tracr: cfg.Tracer}
	slot, err := p.attach(c)
	if err != nil {
		return nil, err
	}
	c.slot = slot
	c.id = int(p.nextCtxID.Add(1)) - 1
	c.q = p.mux.Attach(p.policyFor(cfg.Scheduler), slot)
	c.g = graph.New(p.ready(c))
	if cfg.Recorder != nil {
		c.g.Attach(cfg.Recorder)
	}
	c.tr = deps.NewTrackerShards(c.g, cfg.TrackerShards)
	c.tr.ShareStorage(p.store)
	c.tr.DisableRenaming = cfg.DisableRenaming
	c.tr.AffinityHints = cfg.Locality.Affinity
	// Reclaimed renamed storage wakes this context's submitter when it
	// blocks on the memory limit — the parked wait's signal (paper §III).
	c.tr.SetReclaimHook(func() {
		if c.waiters.Load() > 0 {
			p.mux.Wake(c.slot)
		}
	})
	if cfg.Deadline > 0 {
		c.deadline = time.AfterFunc(cfg.Deadline, func() { c.cancel("deadline") })
	}
	return c, nil
}

// ID returns the context's stable identity within its pool (also the
// context dimension of its trace events).
func (c *Context) ID() int { return c.id }

// Pool returns the pool the context is attached to.
func (c *Context) Pool() *Pool { return c.pool }

// Closed reports whether the context has been closed.
func (c *Context) Closed() bool { return c.closed.Load() }

// Err returns the first task failure observed — a *TaskError wrapping
// the panic value or the error passed to Args.Fail — or nil.  The
// latch is sticky: it survives Barrier and is returned by every later
// Barrier/WaitOn/Close until ClearErr.  Runtime.Err has the identical
// contract.
func (c *Context) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.firstErr
}

// ClearErr clears the sticky task-failure latch, letting a tenant
// observe a failure at one Barrier and keep going.  Cancellation is
// not clearable: a canceled context stays canceled.
func (c *Context) ClearErr() {
	c.errMu.Lock()
	c.firstErr = nil
	c.errMu.Unlock()
}

func (c *Context) setErr(err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
}

// Cancel aborts the context: no further submissions are admitted, and
// every task not yet started — queued, chained, or still blocked on
// predecessors — is drained as a canceled skip (completing normally
// for dependency, refcount and memory bookkeeping, but never running
// its body).  A submitter blocked in Barrier, WaitOn or a throttle is
// unparked; Barrier/WaitOn/Close return a *CanceledError.  Tasks whose
// bodies are already running are not interrupted, and co-tenants of
// the pool are untouched.  Cancel is idempotent and safe to call from
// any goroutine — it is the one Context entry point exempt from the
// single-submitter contract.
func (c *Context) Cancel() { c.cancel("cancel") }

func (c *Context) cancel(reason string) {
	c.errMu.Lock()
	if c.cancelErr == nil {
		c.cancelErr = &CanceledError{Ctx: c.id, Reason: reason}
	}
	c.errMu.Unlock()
	c.canceled.Store(true)
	// Unpark this context's submitter (blocked in Barrier/throttle) and
	// kick the pool so parked workers drain the already-queued tasks as
	// canceled skips.
	c.pool.mux.Wake(c.slot)
	c.pool.mux.Kick()
}

// Canceled reports whether the context has been canceled (by Cancel,
// its Deadline, or a pool Drain).
func (c *Context) Canceled() bool { return c.canceled.Load() }

// cancelError returns the cancellation latch, or nil.
func (c *Context) cancelError() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.cancelErr
}

// barrierErr is the error contract of Barrier/WaitOn/Close: the first
// task failure if one is latched, else the cancellation error, else
// nil.
func (c *Context) barrierErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.firstErr != nil {
		return c.firstErr
	}
	return c.cancelErr
}

// Stats returns a snapshot of this context's counters.  Everything in
// it is per-context: the scheduler view is the context's own policy,
// and the rename counters come from the context's tracker, so no other
// tenant's activity appears here.  Pool-wide machinery counters
// (parking, shared free storage) live on Pool.Stats.
func (c *Context) Stats() Stats {
	d := c.tr.Stats()
	sc := c.q.Stats()
	// Chained tasks never touch the policy's queues; the runtime counts
	// them and folds the gauge into the scheduler view.
	sc.ChainHits = c.chainHits.Load()
	return Stats{
		TasksSubmitted:   c.submitted.Load(),
		TasksExecuted:    c.executed.Load(),
		Deps:             d,
		Sched:            sc,
		SyncBackCopies:   c.syncCopies.Load(),
		MainHelped:       c.mainHelped.Load(),
		Renames:          d.Renames,
		RenamesElided:    d.RenamesElided,
		PoolHits:         d.PoolHits,
		PoolMisses:       d.PoolMisses,
		LiveRenamedBytes: c.tr.LiveRenamedBytes(),
		Failures:         c.failures.Load(),
		Poisoned:         c.poisonSkips.Load(),
		Canceled:         c.cancelSkips.Load(),
	}
}

// Submit invokes a task: the runtime analyzes each parameter's
// directionality against the current state of its data, adds the task
// to the context's graph with its true dependencies, and schedules it
// on the shared pool as soon as they are satisfied.  Submit returns
// immediately unless one of the paper's §III blocking conditions holds
// (graph size limit, memory limit), in which case the calling thread
// executes this context's tasks until the condition clears.
//
// Submitting to a closed context returns a ClosedError; submitting to
// a canceled context returns its CanceledError.
func (c *Context) Submit(def *TaskDef, args ...Arg) error {
	if c.closed.Load() {
		return &ClosedError{Entity: "context", Op: "Submit"}
	}
	if c.canceled.Load() {
		return c.cancelError()
	}
	c.throttle()
	c.submitOne(def, args)
	return nil
}

// SubmitBatch submits a sequence of task invocations, equivalent to
// calling Submit once per element but with the per-call overhead
// amortized (see Runtime.SubmitBatch).  It returns a ClosedError — and
// submits nothing — if the context is closed.
func (c *Context) SubmitBatch(calls ...TaskCall) error {
	if c.closed.Load() {
		return &ClosedError{Entity: "context", Op: "SubmitBatch"}
	}
	if c.canceled.Load() {
		return c.cancelError()
	}
	for i := range calls {
		c.throttle()
		c.submitOne(calls[i].Def, calls[i].Args)
	}
	return nil
}

// NewBatch creates an empty reusable batch bound to the context.
func (c *Context) NewBatch() *Batch { return &Batch{c: c} }

// throttle blocks the submitting thread — executing this context's
// tasks meanwhile — while either of the paper's §III blocking
// conditions holds (graph size limit, memory limit).  The graph limit
// applies hysteresis: once hit, the submitter stays blocked until a
// quarter of the limit has drained, so it does not bounce across the
// threshold while the workers chew at the boundary.
//
// The memory limit is a parked wait, not a spin: when no task is
// available to help with, the submitter sleeps in the pool and is woken
// either by one of its tasks completing or by the tracker's reclaim
// hook the moment renamed storage returns to the store.  If the limit
// is still exceeded once every task has completed, the remaining live
// bytes belong to idle diverged objects that no completion can ever
// release — the context syncs them back (reclaiming their instances)
// and proceeds, since the limit is a blocking condition, not a hard cap.
//
// Throttling is per-context: a throttled tenant parks its own
// submitter and never blocks the pool's workers, so it cannot starve
// the other contexts.
func (c *Context) throttle() {
	if limit := int64(c.cfg.GraphLimit); limit > 0 {
		if c.g.Open() >= limit {
			low := limit - limit/4
			for c.g.Open() >= low {
				if !c.helpOnce(func() bool { return c.g.Open() < low }) {
					break
				}
			}
		}
	}
	if limit := c.cfg.MemoryLimit; limit > 0 {
		// The gauge is the tracker's acquire/release count of renamed
		// storage alive right now, which also covers storage kept alive
		// by diverged objects after their tasks completed.
		for c.tr.LiveRenamedBytes() >= limit {
			if c.outstanding.Load() == 0 {
				c.syncCopies.Add(int64(c.tr.SyncAll()))
				break
			}
			c.helpOnce(func() bool {
				return c.tr.LiveRenamedBytes() < limit || c.outstanding.Load() == 0
			})
		}
	}
}

// submitOne adds one task to the graph: all data parameters are resolved
// through a single batched tracker entry, then the node is sealed.
func (c *Context) submitOne(def *TaskDef, args []Arg) {
	rec := &taskRec{def: def, ctx: c, args: c.bindArgs(len(args))}
	node := &rec.node
	c.g.Insert(node, def.kind, def.Name, def.HighPriority, rec)
	accs := c.accBuf[:0]
	ixs := c.ixBuf[:0]
	for i := range args {
		a := &args[i]
		switch a.kind {
		case argValue, argOpaque:
			rec.args[i] = boundArg{kind: a.kind, instance: a.value}
		case argData:
			accs = append(accs, deps.Access{
				Key:    dataKey(a.data),
				Mode:   a.mode,
				Region: a.region,
				Data:   a.data,
				Copy:   dataid.CopyInto,
			})
			ixs = append(ixs, i)
		}
	}
	ress := c.tr.AnalyzeInto(node, accs, c.resBuf[:0], &rec.holds)
	for j := range ress {
		res := &ress[j]
		i := ixs[j]
		if res.Renamed {
			c.tracr.EmitCtx(c.id, c.slot, trace.EvRename, def.kind, def.Name, node.ID)
		}
		rec.args[i] = boundArg{kind: argData, instance: res.Instance, copyFrom: res.CopyFrom}
	}
	// Return the scratch to the context and drop the data references the
	// entries hold, so reuse does not pin user arrays.
	clear(accs)
	clear(ress)
	c.accBuf, c.resBuf, c.ixBuf = accs, ress, ixs
	c.submitted.Add(1)
	c.outstanding.Add(1)
	c.tracr.EmitCtx(c.id, c.slot, trace.EvCreate, def.kind, def.Name, node.ID)
	c.g.Seal(node)
}

// bindArgs returns a zeroed binding slice of length n carved from the
// context's argument slab, so a task's bindings cost no allocation of
// their own: a fresh argSlabChunk-sized chunk is allocated when the
// current one runs out, and arities past the chunk size get their own
// slice.  A chunk is freed once every record carved from it has
// completed (retire drops the record's slice).
func (c *Context) bindArgs(n int) []boundArg {
	if n == 0 {
		return nil
	}
	if n > len(c.argSlab) {
		if n > argSlabChunk {
			return make([]boundArg, n)
		}
		c.argSlab = make([]boundArg, argSlabChunk)
	}
	b := c.argSlab[:n:n]
	c.argSlab = c.argSlab[n:]
	return b
}

// exec runs one task body on thread self, then — with successor
// chaining enabled — keeps running successors inline for as long as
// each completion releases exactly one ready task, up to
// Locality.ChainDepth per popped task.  A chained successor consumes
// the operands its predecessor just produced while they are still in
// this worker's cache, and pays no queue, wake, or steal traffic; it
// never entered the scheduler, so no thief can ever claim it.  Chains
// yield to queued high-priority work.
func (c *Context) exec(n *graph.Node, self int) {
	chained := 0
	for {
		if self == c.slot {
			// Only this context's submitter executes under its own slot
			// (restricted lookups never serve other tenants), so this is
			// the helped-while-blocked gauge — counted per task, so a
			// chaining helper reports every link it ran.
			c.mainHelped.Add(1)
		}
		c.g.MarkRunning(n)
		rec := n.Payload.(*taskRec)
		// A canceled tenant or a poisoned dependent skips the body —
		// including the renamed-inout seed copies, whose sources may be
		// garbage — but still completes the node below, so edges,
		// version refcounts and pooled rename storage drain exactly as
		// on the success path.
		skipped := true
		if c.canceled.Load() {
			c.cancelSkips.Add(1)
			c.tracr.EmitCtx(c.id, self, trace.EvCanceled, n.Kind, rec.def.Name, n.ID)
		} else if n.Poisoned() {
			c.poisonSkips.Add(1)
			c.tracr.EmitCtx(c.id, self, trace.EvPoisoned, n.Kind, rec.def.Name, n.ID)
		} else {
			skipped = false
			// Seed renamed inout parameters.  The RAW edge on the previous
			// producer guarantees the source contents are final.
			for i := range rec.args {
				if b := &rec.args[i]; b.copyFrom != nil {
					dataid.CopyInto(b.instance, b.copyFrom)
					b.copyFrom = nil
				}
			}
			c.tracr.EmitCtx(c.id, self, trace.EvStart, n.Kind, rec.def.Name, n.ID)
			c.runBody(rec, n, self)
			c.tracr.EmitCtx(c.id, self, trace.EvEnd, n.Kind, rec.def.Name, n.ID)
		}
		var next *graph.Node
		if chained < c.cfg.Locality.ChainDepth && !c.q.HighPending() {
			next = c.g.CompleteChain(n, self)
		} else {
			c.g.Complete(n, self)
		}
		// Release before the outstanding count drops, so that when a
		// Barrier observes zero every version hold is gone and
		// LiveRenamedBytes reflects only idle diverged objects.
		rec.retire()
		if !skipped {
			// Skips complete without executing, so TasksExecuted keeps
			// meaning "bodies run"; the skip counters hold the rest.
			c.executed.Add(1)
		}
		if c.outstanding.Add(-1) == 0 || c.waiters.Load() > 0 {
			// Wake this context's blocked Barrier/WaitOn/throttle caller so
			// it re-checks its condition.  Only the context's submitter waits
			// on cancel conditions, so the wake targets its slot rather than
			// broadcasting to every parked worker on every completion — and a
			// completion in this context never wakes another tenant.
			c.pool.mux.Wake(c.slot)
		}
		if next == nil {
			return
		}
		chained++
		c.chainHits.Add(1)
		c.tracr.EmitCtx(c.id, self, trace.EvChain, next.Kind, next.Label, next.ID)
		n = next
	}
}

// runBody executes one task body, converting a panic or an Args.Fail
// call (or an injected fault) into the context's latched *TaskError.
// A panic takes precedence over a recorded Fail.  Under FailPoison the
// failed node is tainted, and Complete then spreads the taint to its
// dependents.
func (c *Context) runBody(rec *taskRec, n *graph.Node, self int) {
	a := &rec.call
	a.rec, a.worker = rec, self
	var cause error
	func() {
		defer func() {
			if r := recover(); r != nil {
				cause = fmt.Errorf("panicked: %v", r)
			}
		}()
		if err := chaos.TaskBody(c.id, n.ID); err != nil {
			a.failed = err
			return
		}
		rec.def.Fn(a)
	}()
	if cause == nil {
		cause = a.failed
	}
	if cause == nil {
		return
	}
	c.failures.Add(1)
	c.setErr(&TaskError{Def: rec.def.Name, TaskID: n.ID, Ctx: c.id, Worker: self, Cause: cause})
	c.tracr.EmitCtx(c.id, self, trace.EvFail, n.Kind, rec.def.Name, n.ID)
	if c.cfg.OnFailure == FailPoison {
		n.MarkPoisoned()
	}
}

// helpOnce lets the submitter execute a single task of this context,
// parking until one is available or until done() reports the blocking
// condition cleared.  The restricted lookup never takes another
// tenant's task: a barrier in this context must not stall behind a
// long-running task body of a different context.  It returns false when
// done() fired without work being found.
func (c *Context) helpOnce(done func() bool) bool {
	c.waiters.Add(1)
	n := c.pool.mux.Get(c.slot, c.q, done)
	c.waiters.Add(-1)
	if n == nil {
		return false
	}
	c.exec(n, c.slot) // counts MainHelped per task executed, chains included
	return true
}

// Barrier blocks until every task submitted to this context has
// completed, with the submitting thread behaving as a worker for this
// context in the meantime (paper §III).  On return, any data whose
// current contents live in renamed storage have been copied back to
// the variables the program named, and the first task failure (if any)
// is returned; on a canceled context, the remaining tasks drain as
// skips and Barrier returns the CanceledError (a latched task failure
// still wins).  Other contexts on the pool are unaffected.
func (c *Context) Barrier() error {
	c.tracr.EmitCtx(c.id, c.slot, trace.EvBarrier, -1, "", 0)
	for c.outstanding.Load() > 0 {
		c.helpOnce(func() bool { return c.outstanding.Load() == 0 })
	}
	c.syncCopies.Add(int64(c.tr.SyncAll()))
	if c.cfg.OnFailure == FailPoison && c.failures.Load() > 0 {
		c.tr.ForgetPoison()
	}
	c.tracr.EmitCtx(c.id, c.slot, trace.EvBarrierDone, -1, "", 0)
	return c.barrierErr()
}

// WaitOn blocks until all pending writers of data have completed,
// helping to execute this context's tasks meanwhile, then makes the
// current contents visible in data (copying back from renamed storage
// if needed).
func (c *Context) WaitOn(data any) error { return c.WaitOnRegion(data, deps.Full) }

// WaitOnRegion is WaitOn restricted to a region of data.  Note that if
// the object was renamed (whole-object writes), the sync-back copies the
// entire object.
func (c *Context) WaitOnRegion(data any, r Region) error {
	key := dataKey(data)
	pending := func() bool { return len(c.tr.PendingWriters(key, r)) == 0 }
	for !pending() {
		c.helpOnce(pending)
	}
	if c.tr.SyncObject(key) {
		c.syncCopies.Add(1)
	}
	return c.barrierErr()
}

// Close waits for all of this context's outstanding work (an implicit
// barrier), then detaches the context from the pool, freeing its slot
// for a future tenant.  The context must not be used afterwards; the
// pool and its other contexts keep running.  Closing an already-closed
// context is a no-op returning the latched error.
func (c *Context) Close() error {
	if c.closed.Load() {
		return c.barrierErr()
	}
	if c.deadline != nil {
		c.deadline.Stop()
	}
	err := c.Barrier()
	c.closed.Store(true)
	c.pool.detach(c)
	return err
}
