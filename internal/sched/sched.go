package sched

import (
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/graph"
)

// Stats aggregates scheduler activity, mostly so tests and ablation
// benchmarks can verify the locality policy is actually exercised.
type Stats struct {
	// PushHigh counts tasks queued on the high-priority list.
	PushHigh int64
	// PushOwn counts tasks queued directly on the releasing worker's deque.
	PushOwn int64
	// PushMain counts tasks queued on the shared injector (ready at
	// submission, or spilled from a full worker deque).
	PushMain int64
	// PopHigh, PopOwn, PopMain count where workers found their tasks.
	PopHigh, PopOwn, PopMain int64
	// Steals counts tasks taken from another worker's deque.
	Steals int64
	// StealBatches counts steal operations (each moves up to half the
	// victim's deque, so Steals/StealBatches is the mean batch size).
	StealBatches int64
	// Spills counts tasks that overflowed a bounded worker deque onto the
	// injector.
	Spills int64
	// AffinityPushes counts ready-at-submission tasks placed on the
	// deque of the worker that last wrote one of their operands (the
	// locality layer's affinity hints) instead of the shared injector.
	AffinityPushes int64
	// AffinityMisses counts affinity-hinted tasks that fell back to the
	// injector because the hinted deque was full.
	AffinityMisses int64
	// ChainHits counts successors a completing worker ran inline
	// (successor chaining), bypassing the queues and wake protocol
	// entirely.  Tracked by the runtime, not the policy: a chained task
	// never enters a queue.
	ChainHits int64
	// Parks and Unparks count workers going to sleep and being woken.
	// They are tracked by the Scheduler wrapper, not the policy.
	Parks, Unparks int64
}

// Policy decides where ready tasks queue and where a worker looks next.
// Implementations must be safe for concurrent use.
type Policy interface {
	// Push queues a ready task.  releasedBy is the worker whose task
	// completion made it ready, or graph.MainThread if it was ready at
	// submission.  The return value reports whether a sleeping worker
	// should be woken for the task: false means the task landed alone on
	// the releasing worker's own deque, where that worker — by the
	// single-submitter runtime's invariant the very goroutine making this
	// call — will pop it on its next lookup, so waking a thief would only
	// migrate the task away from its hot data (and, on a saturated
	// machine, pay a context switch per task).
	Push(n *graph.Node, releasedBy int) (wake bool)
	// TryNext returns a task for worker self, or nil if none is
	// available right now.
	TryNext(self int) *graph.Node
	// Len returns the total number of queued tasks (approximate under
	// concurrency).
	Len() int
	// Stats returns a snapshot of the policy's counters.
	Stats() Stats
}

// Locality is the scheduling policy of paper §III, rebuilt for multi-core
// throughput: a high-priority list, one *bounded* deque per worker fed by
// dependency-releasing completions (consumed LIFO by the owner), a shared
// injector queue for tasks ready at submission (and for deque overflow),
// and steal-half work stealing in creation order — a thief takes the
// oldest half of the victim's deque in one lock acquisition instead of
// bouncing on the victim once per task.
type Locality struct {
	high   queue
	inject queue
	deques []deque
	// stealBuf is per-worker scratch for grabHalf, sized so a steal can
	// always move a full half-deque without allocating.
	stealBuf [][]*graph.Node
	// helpers is the number of leading worker identities that belong to
	// submitting threads (one per context on a shared pool; identity 0,
	// the main thread, on a private runtime).  Helpers are optional
	// executors — they may stop helping and go back to submitting at any
	// moment — so their self-pushes never elide the wake and their
	// steals stay polite (one task, never a victim's last).
	helpers int

	pushHigh, pushOwn, pushMain    atomic.Int64
	popHigh, popOwn, popMain       atomic.Int64
	steals, stealBatches           atomic.Int64
	spills                         atomic.Int64
	affinityPushes, affinityMisses atomic.Int64
	// highLen mirrors high's length so the wake-elision check on the
	// self-push fast path costs one atomic load, not a queue lock.
	highLen atomic.Int64
}

// HighPending reports whether high-priority work is queued.  The
// runtime's successor chaining checks it so an inline chain never makes
// a worker skip over a waiting high-priority task.
func (s *Locality) HighPending() bool { return s.highLen.Load() > 0 }

// NewLocality creates the paper's scheduler for nworkers workers
// (including the main thread, which participates with identity 0 when it
// blocks on a barrier).
func NewLocality(nworkers int) *Locality {
	return newLocalityCap(nworkers, defaultDequeCap)
}

// NewLocalityShared creates the policy for a shared worker pool with
// nslots total worker identities, of which the first helpers are
// context submitter slots (see Locality.helpers).
func NewLocalityShared(nslots, helpers int) *Locality {
	if helpers < 1 {
		helpers = 1
	}
	return newLocalityFull(nslots, helpers, defaultDequeCap)
}

// newLocalityCap is NewLocality with an explicit per-worker deque bound,
// so tests can force overflow with few tasks.
func newLocalityCap(nworkers, capacity int) *Locality {
	return newLocalityFull(nworkers, 1, capacity)
}

func newLocalityFull(nworkers, helpers, capacity int) *Locality {
	if nworkers < 1 {
		nworkers = 1
	}
	s := &Locality{
		deques:   make([]deque, nworkers),
		stealBuf: make([][]*graph.Node, nworkers),
		helpers:  helpers,
	}
	for i := range s.deques {
		s.deques[i].init(capacity)
		// Size the scratch from the deque's *rounded* capacity so a full
		// half-deque steal never clamps.
		s.stealBuf[i] = make([]*graph.Node, len(s.deques[i].buf)/2+1)
	}
	return s
}

// Push implements Policy.
func (s *Locality) Push(n *graph.Node, releasedBy int) bool {
	switch {
	case n.Priority:
		// High-priority tasks are scheduled as soon as possible
		// independently of any locality consideration (paper §III).
		s.high.pushBack(n)
		s.highLen.Add(1)
		s.pushHigh.Add(1)
	case releasedBy >= 0 && releasedBy < len(s.deques):
		// The releasing worker just produced one of this task's inputs;
		// keep it local so the data is reused while hot.  A full deque
		// spills to the injector, keeping per-worker memory bounded.
		if size, ok := s.deques[releasedBy].pushBack(n); ok {
			s.pushOwn.Add(1)
			// A lone task on a dedicated worker's own deque needs no
			// wakeup: the worker is the caller and pops it next.  The
			// helper slots (submitting threads) are exempt — they may
			// stop helping and go back to submitting, so their deques
			// need a thief.  So is a push while high-priority work is
			// pending: the caller's next lookup takes the high task
			// first, and the lone successor would strand behind it with
			// no wake.
			return releasedBy < s.helpers || size > 1 || s.highLen.Load() > 0
		}
		s.inject.pushBack(n)
		s.spills.Add(1)
		s.pushMain.Add(1)
	default:
		// Ready at submission.  With an affinity hint — the tracker saw
		// this task's operands last written by a worker that has already
		// completed — the task goes to that worker's deque, where the
		// data is plausibly still cache-hot (paper §III's locality lists,
		// rebuilt on the stealing substrate: the task stays stealable if
		// the hinted worker is busy).  Hints to helper slots are honored
		// only when the pool has no dedicated workers (a Workers: 1
		// runtime, where the submitter is the only executor): otherwise
		// the task would sit in a deque no dedicated worker owns and
		// cost a forced steal instead of a direct injector pop.
		// Unhinted tasks take the injector, the distribution point for
		// unexplored regions of the graph.
		if h := n.Affinity(); h >= 0 && h < len(s.deques) &&
			(h >= s.helpers || len(s.deques) == s.helpers) {
			if _, ok := s.deques[h].pushBack(n); ok {
				s.affinityPushes.Add(1)
				return true
			}
			s.affinityMisses.Add(1)
		}
		s.inject.pushBack(n)
		s.pushMain.Add(1)
	}
	return true
}

// TryNext implements the lookup order of paper §III for worker self:
// high-priority list, own deque (LIFO), injector (FIFO), then steal half
// of another worker's deque in creation order starting from the next one.
func (s *Locality) TryNext(self int) *graph.Node {
	if n := s.high.popFront(); n != nil {
		s.highLen.Add(-1)
		s.popHigh.Add(1)
		return n
	}
	if self < 0 || self >= len(s.deques) {
		self = 0
	}
	if n := s.deques[self].popBack(); n != nil {
		s.popOwn.Add(1)
		return n
	}
	if n := s.inject.popFront(); n != nil { // injector in FIFO order
		s.popMain.Add(1)
		return n
	}
	// Steal from other workers in creation order starting from the next
	// one, FIFO, so the victim keeps the tasks whose data is hottest.
	//
	// Helper slots (submitting threads) steal one task per steal: the
	// remainder of a steal batch bypasses the wake protocol, which is
	// safe for a dedicated worker (it keeps polling until the deque
	// drains) but not for a helper, which may stop helping and go back
	// to submitting while every worker sleeps.
	//
	// On a private runtime (helpers == 1) the main thread additionally
	// never takes the *last* queued task of a dedicated worker's deque:
	// only a worker pushes to its own deque, so the owner is awake and
	// about to pop it, and the main thread taking it would only migrate
	// a dependency chain away from its hot cache.  On a shared pool that
	// courtesy is dropped — the owner may be awake but serving another
	// tenant's task for arbitrarily long, and a barrier-blocked
	// submitter restricted to this context must be able to take its own
	// graph's final task rather than wait out a neighbour's task body.
	minSize := 1
	buf := s.stealBuf[self]
	if self < s.helpers {
		buf = buf[:1]
		if s.helpers == 1 {
			minSize = 2
		}
	}
	// Fault-injection point: widen the window between "own queues are
	// empty" and the first victim probe, the classic lost-wake race.
	chaos.StealDelay(self)
	for i := 1; i < len(s.deques); i++ {
		victim := (self + i) % len(s.deques)
		k := s.deques[victim].grabHalf(buf, minSize)
		if k == 0 {
			continue
		}
		s.steals.Add(int64(k))
		s.stealBatches.Add(1)
		// Run the oldest; the remainder goes on our own deque, pushed
		// newest-first so our LIFO pops replay them oldest-first (the
		// FIFO order the steal promised).  Our deque is all-but-empty
		// here, but a shrunken test capacity can still overflow — spill
		// like Push does.
		n := buf[0]
		for j := k - 1; j >= 1; j-- {
			if _, ok := s.deques[self].pushBack(buf[j]); !ok {
				s.inject.pushBack(buf[j])
				s.spills.Add(1)
			}
			buf[j] = nil
		}
		buf[0] = nil
		return n
	}
	return nil
}

// Len implements Policy.
func (s *Locality) Len() int {
	total := s.high.size() + s.inject.size()
	for i := range s.deques {
		total += s.deques[i].size()
	}
	return total
}

// Stats implements Policy.
func (s *Locality) Stats() Stats {
	return Stats{
		PushHigh:       s.pushHigh.Load(),
		PushOwn:        s.pushOwn.Load(),
		PushMain:       s.pushMain.Load(),
		PopHigh:        s.popHigh.Load(),
		PopOwn:         s.popOwn.Load(),
		PopMain:        s.popMain.Load(),
		Steals:         s.steals.Load(),
		StealBatches:   s.stealBatches.Load(),
		Spills:         s.spills.Load(),
		AffinityPushes: s.affinityPushes.Load(),
		AffinityMisses: s.affinityMisses.Load(),
	}
}

// GlobalFIFO is the ablation policy: one central FIFO ready queue, no
// locality lists, no stealing — the structure SuperMatrix used (paper
// §VII.C).  High-priority tasks still jump the line.
type GlobalFIFO struct {
	high queue
	main queue

	pushHigh, pushMain atomic.Int64
	popHigh, popMain   atomic.Int64
}

// NewGlobalFIFO creates the central-queue ablation policy.
func NewGlobalFIFO() *GlobalFIFO { return &GlobalFIFO{} }

// HighPending reports whether high-priority work is queued, so
// successor chaining yields to it under this policy too.
func (s *GlobalFIFO) HighPending() bool { return s.high.size() > 0 }

// Push implements Policy.
func (s *GlobalFIFO) Push(n *graph.Node, releasedBy int) bool {
	if n.Priority {
		s.high.pushBack(n)
		s.pushHigh.Add(1)
		return true
	}
	s.main.pushBack(n)
	s.pushMain.Add(1)
	return true
}

// TryNext implements Policy.
func (s *GlobalFIFO) TryNext(self int) *graph.Node {
	if n := s.high.popFront(); n != nil {
		s.popHigh.Add(1)
		return n
	}
	if n := s.main.popFront(); n != nil {
		s.popMain.Add(1)
		return n
	}
	return nil
}

// Len implements Policy.
func (s *GlobalFIFO) Len() int { return s.high.size() + s.main.size() }

// Stats implements Policy.
func (s *GlobalFIFO) Stats() Stats {
	return Stats{
		PushHigh: s.pushHigh.Load(),
		PushMain: s.pushMain.Load(),
		PopHigh:  s.popHigh.Load(),
		PopMain:  s.popMain.Load(),
	}
}

// Scheduler couples a single Policy with the TokenMux parking protocol:
// the single-tenant view of the shared-pool dispatch machinery, kept as
// the package's reference harness (and exercised hard by the tests in
// this package).  A private core.Runtime is exactly this shape — one
// pool, one client — just built from the Pool/Context layer above.
type Scheduler struct {
	mux *TokenMux
	c   *Client
}

// NewScheduler wraps a policy with parking support for nworkers workers
// (worker identities 0..nworkers-1; identity 0 is the main thread when
// it helps).
func NewScheduler(p Policy, nworkers int) *Scheduler {
	m := NewTokenMux(nworkers)
	return &Scheduler{mux: m, c: m.Attach(p, 0)}
}

// Push queues a ready task and unparks one idle worker when the policy
// asks for one.  While no worker is parked, the wakeup path is a single
// atomic load.
func (s *Scheduler) Push(n *graph.Node, releasedBy int) bool {
	s.mux.Push(s.c, n, releasedBy)
	return true
}

// TryNext returns a task for worker self without parking, or nil.
func (s *Scheduler) TryNext(self int) *graph.Node {
	if self < 0 || self >= len(s.mux.cursor) {
		self = 0
	}
	return s.mux.tryNext(self, nil)
}

// Len returns the number of queued tasks.
func (s *Scheduler) Len() int { return s.c.policy.Len() }

// Get returns the next task for worker self, parking until one arrives.
// It returns nil when cancel() reports true (checked whenever the worker
// is about to park or is woken) or after Close.
func (s *Scheduler) Get(self int, cancel func() bool) *graph.Node {
	return s.mux.Get(self, nil, cancel)
}

// Wake delivers a targeted wakeup to worker w so it re-evaluates its
// cancel condition.
func (s *Scheduler) Wake(w int) { s.mux.Wake(w) }

// Kick wakes all parked workers so they re-evaluate their cancel
// conditions.
func (s *Scheduler) Kick() { s.mux.Kick() }

// Close wakes everyone and makes subsequent Gets return once the queues
// drain.
func (s *Scheduler) Close() { s.mux.Close() }

// Stats returns the policy's snapshot plus the mux's parking counters.
func (s *Scheduler) Stats() Stats {
	st := s.c.policy.Stats()
	ms := s.mux.Stats()
	st.Parks, st.Unparks = ms.Parks, ms.Unparks
	return st
}
