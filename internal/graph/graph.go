// Package graph implements the dynamic task dependency graph at the heart
// of the SMPSs runtime.
//
// Whenever the application calls a task, the runtime adds a node to the
// graph together with edges encoding its true (read-after-write)
// dependencies on earlier tasks.  Nodes whose dependency count drops to
// zero are reported through a readiness callback, tagged with the identity
// of the worker whose task completion released them; the scheduler uses
// that tag to place the task on the releasing worker's own ready list,
// which is how SMPSs exploits data locality (paper §III).
//
// The graph retains completed nodes only while a Recorder is attached
// (used to reproduce Fig. 5 of the paper); in normal operation nodes are
// dropped as soon as they complete so arbitrarily long programs run in
// bounded memory.
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NodeState enumerates the lifecycle of a task node.
type NodeState int32

// Lifecycle states of a node.  A node moves strictly forward:
// Building → Ready → Running → Done.
const (
	// StateBuilding means the node is still being analyzed; edges may be
	// added and the node must not be scheduled yet.
	StateBuilding NodeState = iota
	// StateReady means all input dependencies are satisfied and the node
	// is queued (or about to be queued) for execution.
	StateReady
	// StateRunning means a worker is executing the task body.
	StateRunning
	// StateDone means the task finished and its outgoing edges have been
	// released.
	StateDone
)

// String returns a short human-readable state name.
func (s NodeState) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// MainThread is the worker identity used for tasks that become ready at
// submission time (on the main thread) rather than by a worker completing
// one of their predecessors.
const MainThread = -1

// Node is one task instance in the dependency graph.
type Node struct {
	// ID is the task's invocation order, starting at 1 like the node
	// numbering of Fig. 5 in the paper.
	ID int64
	// Kind identifies the task definition (used to color Fig. 5 and to
	// aggregate per-task-type statistics).
	Kind int
	// Label is the task definition name, e.g. "spotrf_t".
	Label string
	// Priority marks the task as highpriority (paper §II): it is
	// scheduled as soon as possible, bypassing locality lists.
	Priority bool
	// Payload carries the runtime's task record (argument bindings,
	// function pointer).  The graph never inspects it.
	Payload any

	// pending counts unsatisfied input dependencies.  The extra +1 held
	// during construction prevents a concurrent completion from firing
	// the readiness callback before analysis has finished.
	pending atomic.Int32
	state   atomic.Int32
	// poisoned marks the node as tainted by an upstream failure: its
	// inputs may be garbage, so the executor must skip the task body
	// (while still completing the node, so edges, observers and memory
	// bookkeeping drain normally).  Set on the node itself when its body
	// fails, and propagated to successors by complete.
	poisoned atomic.Bool

	// executedBy records, biased by +1 so the zero value means "not
	// executed", the worker identity that completed the task.  It is
	// written by Complete immediately before the Done state store, so
	// any thread that observes Done also observes the worker id — the
	// dependency tracker reads it to compute affinity hints.
	executedBy int32
	// affinity is the scheduler placement hint, biased by +1 so the
	// zero value means "no hint": the worker that last wrote one of the
	// task's operands.  Written by the submitting thread during
	// analysis (before Seal) and read by the scheduling policy when the
	// node becomes ready.
	affinity int32

	mu    sync.Mutex
	succs []*Node
	// hooks are the completion observers registered with OnComplete,
	// fired exactly once by Complete.
	hooks []func()
	// npred is the total number of incoming true-dependency edges ever
	// added (for statistics and DOT export of in-degree).
	npred int32
}

// State returns the node's current lifecycle state.
func (n *Node) State() NodeState { return NodeState(n.state.Load()) }

// Done reports whether the task has completed.
func (n *Node) Done() bool { return n.State() == StateDone }

// NumPredecessors returns the number of true-dependency edges into the node.
func (n *Node) NumPredecessors() int { return int(atomic.LoadInt32(&n.npred)) }

// ExecutedBy returns the worker identity that completed the task, or
// MainThread if the task has not completed.  Meaningful only after
// Done() reports true.
func (n *Node) ExecutedBy() int { return int(n.executedBy) - 1 }

// SetAffinity records a scheduler placement hint: the worker whose
// cache plausibly holds the task's operands.  Must be called before
// Seal (the hint is published by the node's readiness transition).
func (n *Node) SetAffinity(worker int) {
	if worker >= 0 {
		n.affinity = int32(worker) + 1
	}
}

// Affinity returns the placement hint set by SetAffinity, or -1.
func (n *Node) Affinity() int { return int(n.affinity) - 1 }

// MarkPoisoned taints the node: the runtime calls it when the task's
// body fails (under a poisoning failure policy) or when its tenant is
// canceled, and Complete then spreads the taint to every successor the
// completion releases.
func (n *Node) MarkPoisoned() { n.poisoned.Store(true) }

// Poisoned reports whether the node was tainted by MarkPoisoned or by
// the completion of a poisoned predecessor.
func (n *Node) Poisoned() bool { return n.poisoned.Load() }

// InheritPoison taints to if the completed from was poisoned: the
// dependence analysis calls it, in place of an edge, for a dependence
// on a producer that has already completed, so a failure reaches every
// dependent however late it is submitted.  Complete stores the poison
// before the Done state, so a caller that observed from.Done() sees it.
func InheritPoison(from, to *Node) {
	if from.poisoned.Load() {
		to.poisoned.Store(true)
	}
}

// OnComplete registers a completion observer: f runs exactly once, after
// the node transitions to Done and its successors have been released.
// deps.Tracker.AnalyzeBatch uses one to release a task's version holds
// when the caller keeps no per-task record of its own (the runtime
// releases them itself, without an observer).  If the node has already
// completed, f runs immediately on the calling goroutine.  Observers run
// on the completing worker's goroutine and must not block.
func (n *Node) OnComplete(f func()) {
	n.mu.Lock()
	if n.Done() {
		n.mu.Unlock()
		f()
		return
	}
	n.hooks = append(n.hooks, f)
	n.mu.Unlock()
}

// Graph is a dynamic task dependency graph.
//
// The submitting (main) thread adds nodes and edges; worker threads
// complete nodes concurrently.  All cross-thread coordination happens via
// per-node atomics plus a short critical section per edge endpoint.
type Graph struct {
	nextID  atomic.Int64
	open    atomic.Int64 // nodes added but not yet completed
	added   atomic.Int64
	edges   atomic.Int64
	readyCB func(n *Node, releasedBy int)

	recMu sync.Mutex
	rec   *Recorder
}

// New creates a graph.  ready is invoked exactly once per node when its
// last input dependency is satisfied; releasedBy identifies the worker
// whose completion released the node, or MainThread if the node was ready
// at submission.  ready may be invoked from any thread and must not block.
func New(ready func(n *Node, releasedBy int)) *Graph {
	if ready == nil {
		panic("graph: nil ready callback")
	}
	return &Graph{readyCB: ready}
}

// Open returns the number of nodes that have been added but have not yet
// completed.  The runtime uses it to throttle the main thread when the
// graph grows past its configured limit (paper §III: "a graph size limit").
func (g *Graph) Open() int64 { return g.open.Load() }

// Added returns the total number of nodes ever added.
func (g *Graph) Added() int64 { return g.added.Load() }

// Edges returns the total number of true-dependency edges ever added.
func (g *Graph) Edges() int64 { return g.edges.Load() }

// AddNode creates a node in the Building state.  The caller must add all
// edges with AddEdge and then call Seal exactly once.
func (g *Graph) AddNode(kind int, label string, priority bool, payload any) *Node {
	n := new(Node)
	g.Insert(n, kind, label, priority, payload)
	return n
}

// Insert is AddNode on caller-provided storage: n must be a zero Node,
// typically embedded in the caller's own per-task record so that node
// and record cost one allocation.  The node enters the Building state;
// the caller adds its edges with AddEdge and then calls Seal exactly
// once.
func (g *Graph) Insert(n *Node, kind int, label string, priority bool, payload any) {
	n.ID = g.nextID.Add(1)
	n.Kind = kind
	n.Label = label
	n.Priority = priority
	n.Payload = payload
	n.pending.Store(1) // construction hold
	g.open.Add(1)
	g.added.Add(1)
	g.recMu.Lock()
	if g.rec != nil {
		g.rec.addNode(n)
	}
	g.recMu.Unlock()
}

// AddEdge records a true dependency from → to: "to" may not start until
// "from" completes.  If "from" has already completed no edge is needed,
// but a poisoned "from" still taints "to", exactly as its completion
// would have through the edge.  "to" must still be in the Building state.
func (g *Graph) AddEdge(from, to *Node) {
	if from == to {
		return
	}
	// Count the dependency before publishing the edge: once "to" is in
	// from.succs, a concurrent Complete(from) may decrement to.pending at
	// any moment, and it must never observe the count without this edge.
	// "to" is still under construction (its hold is in place), so the
	// rollback below can never drop pending to zero.
	to.pending.Add(1)
	from.mu.Lock()
	if from.Done() {
		from.mu.Unlock()
		to.pending.Add(-1)
		InheritPoison(from, to)
		return
	}
	from.succs = append(from.succs, to)
	from.mu.Unlock()

	atomic.AddInt32(&to.npred, 1)
	g.edges.Add(1)

	g.recMu.Lock()
	if g.rec != nil {
		g.rec.addEdge(from.ID, to.ID)
	}
	g.recMu.Unlock()
}

// Seal ends the construction of n.  If no incomplete predecessors remain,
// the readiness callback fires on the calling (main) thread with
// releasedBy = MainThread.
func (g *Graph) Seal(n *Node) {
	if n.pending.Add(-1) == 0 {
		g.fireReady(n, MainThread)
	}
}

func (g *Graph) fireReady(n *Node, by int) {
	n.state.Store(int32(StateReady))
	g.readyCB(n, by)
}

// MarkRunning transitions a node from Ready to Running.
func (g *Graph) MarkRunning(n *Node) { n.state.Store(int32(StateRunning)) }

// Complete marks n done and releases its successors.  Successors whose
// dependency count reaches zero fire the readiness callback with
// releasedBy = worker, implementing the SMPSs policy that a task made
// ready by a worker lands on that worker's own ready list.
func (g *Graph) Complete(n *Node, worker int) {
	g.complete(n, worker, false)
}

// CompleteChain is Complete for a worker prepared to run one released
// successor inline (the scheduler's successor chaining).  When the
// completion releases exactly one successor and it is not
// high-priority, that node is returned in the Ready state *without*
// firing the readiness callback: it never enters a queue, so no thief
// can ever claim it, and the caller must execute it.  In every other
// case (zero released, several released, or a high-priority successor)
// it behaves exactly like Complete and returns nil.
func (g *Graph) CompleteChain(n *Node, worker int) *Node {
	return g.complete(n, worker, true)
}

func (g *Graph) complete(n *Node, worker int, chain bool) *Node {
	// Publish the executing worker before the Done store: a reader that
	// observes Done (the tracker's affinity-hint probe) is guaranteed to
	// see the worker id.
	n.executedBy = int32(worker) + 1
	n.mu.Lock()
	n.state.Store(int32(StateDone))
	succs := n.succs
	hooks := n.hooks
	n.succs, n.hooks = nil, nil
	n.mu.Unlock()

	// kept is the candidate for inline chaining: the first non-priority
	// successor this completion released, withheld from the readiness
	// callback until a second release proves the completion fans out.
	poison := n.poisoned.Load()
	var kept *Node
	for _, s := range succs {
		// Taint before the decrement: whoever's decrement reaches zero
		// (this thread or a concurrent predecessor's) fires readiness
		// after this store, so the executor always observes the poison.
		if poison {
			s.poisoned.Store(true)
		}
		if s.pending.Add(-1) != 0 {
			continue
		}
		if chain && kept == nil && !s.Priority {
			kept = s
			continue
		}
		if kept != nil {
			// A second successor became ready: chaining would hide
			// parallelism, so both go to the scheduler.
			g.fireReady(kept, worker)
			kept = nil
		}
		chain = false
		g.fireReady(s, worker)
	}
	if kept != nil {
		kept.state.Store(int32(StateReady))
	}
	// Observers fire after successors are released: dependents launch
	// first, memory bookkeeping second.
	for _, f := range hooks {
		f()
	}
	n.Payload = nil
	g.open.Add(-1)
	return kept
}
