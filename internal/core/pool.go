package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/sched"
)

// DefaultMaxContexts is the context-slot count applied when
// PoolConfig.MaxContexts is zero.
const DefaultMaxContexts = 8

// PoolConfig sizes a shared worker pool: a fixed team of dedicated
// workers, as in the paper's runtime (one thread per core), plus one
// submitter slot per attachable context.
type PoolConfig struct {
	// Workers is the number of dedicated worker goroutines the pool
	// owns.  Zero means one per core (runtime.GOMAXPROCS(0)); negative
	// values are a ConfigError.  Context submitter threads add
	// themselves on top whenever they block.  (A pool with literally no
	// dedicated workers — every task executing on blocked submitters —
	// exists only as the internal substrate of a Workers:1 Runtime.)
	Workers int
	// MaxContexts caps the number of concurrently attached contexts
	// (each holds one submitter slot in the pool's worker-identity
	// space).  Zero selects DefaultMaxContexts.  Slots are recycled as
	// contexts close.
	MaxContexts int
}

// PoolStats is a snapshot of pool-level activity.  Per-context counters
// (tasks, edges, renames, queue traffic) live on Context.Stats; only
// the machinery genuinely shared by all tenants is reported here.
type PoolStats struct {
	// Contexts is the number of currently attached contexts.
	Contexts int
	// Parks and Unparks count workers going to sleep and being woken
	// across the whole pool.
	Parks, Unparks int64
	// FreeBytes is the renamed storage idling on the shared recycling
	// store's free lists, available to any context's next rename.
	FreeBytes int64
}

// Pool is the shared execution substrate of the multi-tenant runtime:
// it owns the worker goroutines, the dispatch and parking machinery,
// the worker-local scratch registry, and the shared rename-storage
// recycling store.  Graph state — dependency tracking, throttling,
// statistics — lives in Contexts; many contexts share one pool
// concurrently, each still single-submitter per the paper's model.
//
// Worker identities: slots 0..MaxContexts-1 belong to context
// submitters (context i's submitting thread executes as worker i when
// it blocks), slots MaxContexts..MaxContexts+Workers-1 to the dedicated
// workers.  A private Runtime is a pool with MaxContexts = 1, which
// makes its identities — main thread 0, workers 1..N-1 — exactly the
// seed runtime's numbering.
type Pool struct {
	cfg   PoolConfig
	slots int // MaxContexts + Workers

	mux   *sched.TokenMux
	store *deps.Storage

	// locals holds the worker-local registry slots: locals[w] is owned
	// by the thread executing as worker w (see scratch.go).
	locals [][]any

	mu   sync.Mutex
	ctxs []*Context // by submitter slot; nil entries are free
	nctx int

	nextCtxID atomic.Int64
	closed    atomic.Bool
	// draining refuses new tenants while Drain waits out the old ones.
	draining atomic.Bool
	wg       sync.WaitGroup
}

// NewPool creates and starts a shared worker pool.  The caller must
// eventually call Close (after closing every context) to release the
// worker goroutines.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg, err := validatePool(cfg)
	if err != nil {
		return nil, err
	}
	return newPool(cfg), nil
}

// newPool starts a pool from an already-validated configuration.  The
// Runtime wrapper calls it directly so a 1-thread runtime can run a
// pool with exactly zero dedicated workers.
func newPool(cfg PoolConfig) *Pool {
	p := &Pool{
		cfg:   cfg,
		slots: cfg.MaxContexts + cfg.Workers,
		// The shared recycling store's free-list capacity scales with
		// tenancy, so K contexts keep the headroom K private runtimes
		// would have had.
		store: deps.NewStorageShared(cfg.MaxContexts),
		ctxs:  make([]*Context, cfg.MaxContexts),
	}
	p.locals = make([][]any, p.slots)
	p.mux = sched.NewTokenMux(p.slots)
	for w := cfg.MaxContexts; w < p.slots; w++ {
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// Workers returns the number of dedicated worker goroutines.
func (p *Pool) Workers() int { return p.cfg.Workers }

// MaxContexts returns the pool's context-slot capacity.
func (p *Pool) MaxContexts() int { return p.cfg.MaxContexts }

// Storage returns the pool's shared rename-storage recycling store.
// Hosted programming models that keep their own dependency trackers
// (internal/cellss and friends) share it via deps.Tracker.ShareStorage,
// so every tenant's renames draw on one free-list pool exactly like the
// pool's own contexts.
func (p *Pool) Storage() *deps.Storage { return p.store }

// Contexts returns the number of currently attached contexts.
func (p *Pool) Contexts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nctx
}

// Stats returns a snapshot of the pool-level counters.
func (p *Pool) Stats() PoolStats {
	ms := p.mux.Stats()
	return PoolStats{
		Contexts:  p.Contexts(),
		Parks:     ms.Parks,
		Unparks:   ms.Unparks,
		FreeBytes: p.store.FreeBytes(),
	}
}

// workerLoop is the body of each dedicated worker goroutine: take the
// next ready task from any context — the mux rotates fairly across
// them — and execute it under its owning context's accounting.
func (p *Pool) workerLoop(self int) {
	defer p.wg.Done()
	for {
		n := p.mux.Get(self, nil, nil)
		if n == nil {
			return
		}
		n.Payload.(*taskRec).ctx.exec(n, self)
	}
}

// attach reserves a submitter slot for a new context.
func (p *Pool) attach(c *Context) (slot int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() || p.draining.Load() {
		return 0, &ClosedError{Entity: "pool", Op: "NewContext"}
	}
	for i := range p.ctxs {
		if p.ctxs[i] == nil {
			p.ctxs[i] = c
			p.nctx++
			return i, nil
		}
	}
	return 0, &ConfigError{
		Field: "MaxContexts", Value: p.cfg.MaxContexts,
		Reason: "all context slots are attached; close a context or enlarge the pool",
	}
}

// detach releases a closing context's slot for reuse.
func (p *Pool) detach(c *Context) {
	p.mux.Detach(c.q)
	p.mu.Lock()
	if p.ctxs[c.slot] == c {
		p.ctxs[c.slot] = nil
		p.nctx--
	}
	p.mu.Unlock()
}

// Close stops the worker goroutines and releases the worker-local
// registry.  Every context must be closed first; if any is still
// attached Close refuses with a ConfigError so no tenant's tasks are
// stranded.  The pool must not be used afterwards.
func (p *Pool) Close() error {
	// The emptiness check and the closed flip share one critical
	// section with attach's closed check, so a concurrent NewContext
	// either attaches before the flip (and Close refuses) or observes
	// the pool closed — never attaches to a pool tearing down.
	p.mu.Lock()
	if n := p.nctx; n > 0 {
		p.mu.Unlock()
		return &ConfigError{Field: "Contexts", Value: n, Reason: "Close with contexts still attached"}
	}
	already := p.closed.Swap(true)
	p.mu.Unlock()
	if already {
		return nil
	}
	p.mux.Close()
	p.wg.Wait()
	// Workers are gone (wg.Wait is the happens-before edge for their
	// slot writes); recycle worker-local values that support it.
	p.releaseLocals()
	return nil
}

// Drain shuts the pool down gracefully: it stops admitting new
// contexts, gives the attached tenants until the timeout to finish and
// Close on their own, then cancels the stragglers — their queued work
// drains as canceled skips, releasing every edge, refcount and byte of
// pooled rename storage — force-detaches them, and closes the pool.
// A straggler's own Barrier/Close observes a *CanceledError with
// reason "drain".  Drain may be called from any goroutine and is the
// shutdown path a service wraps around SIGTERM.
func (p *Pool) Drain(timeout time.Duration) error {
	p.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for p.Contexts() > 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	p.mu.Lock()
	stragglers := make([]*Context, 0, p.nctx)
	for _, c := range p.ctxs {
		if c != nil {
			stragglers = append(stragglers, c)
		}
	}
	p.mu.Unlock()
	for _, c := range stragglers {
		c.cancel("drain")
	}
	for _, c := range stragglers {
		if c.deadline != nil {
			c.deadline.Stop()
		}
		// Wait out the tenant's in-flight tasks: everything not yet
		// started skips, and running bodies finish (cancellation never
		// interrupts a body mid-write).
		for c.outstanding.Load() > 0 {
			p.mux.Kick()
			time.Sleep(100 * time.Microsecond)
		}
		// Mark closed before detaching so the owner's own Close (if it
		// ever runs) takes the latched-error early return instead of
		// barriering against a detached client.  Renamed storage a
		// force-detached tenant diverged is synced back only by its
		// owner's Barrier — Drain must not call SyncAll concurrently
		// with a submitter that may still be running.
		c.closed.Store(true)
		p.detach(c)
	}
	return p.Close()
}

// policyFor builds a context's scheduling policy sized to the pool's
// worker-identity space.
func (p *Pool) policyFor(kind SchedulerKind) sched.Policy {
	switch kind {
	case SchedGlobalFIFO:
		return sched.NewGlobalFIFO()
	default:
		return sched.NewLocalityShared(p.slots, p.cfg.MaxContexts)
	}
}

// ready is the graph readiness callback bound to one context.
func (p *Pool) ready(c *Context) func(n *graph.Node, releasedBy int) {
	return func(n *graph.Node, releasedBy int) { p.mux.Push(c.q, n, releasedBy) }
}
