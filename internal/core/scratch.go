package core

import "sync/atomic"

// Per-worker scratch registry, owned by the Pool.  Task bodies that
// need reusable thread-private storage — the packed-kernel providers'
// panel buffers are the motivating case — register a LocalKey once
// (package level) and fetch the executing worker's instance through
// Args.Local.  Each worker identity is a single thread (slots below
// MaxContexts are context submitters when they block, the rest the
// dedicated workers), so slot access needs no synchronization: a slot
// is only ever touched by the thread running as that worker, the same
// single-submitter discipline the submission scratch already relies
// on.  The registry is pool-wide: tasks of different contexts executed
// by the same worker share that worker's scratch, which is exactly what
// packing buffers want.

// localKeys hands out one stable slot index per registered key.
var localKeys atomic.Int64

// LocalKey identifies one kind of worker-local value across runtimes.
// Declare it at package level with NewLocalKey and pass it to
// Args.Local from task bodies.
type LocalKey struct {
	idx int
	new func() any
}

// NewLocalKey registers a worker-local slot whose per-worker instances
// are created on first use by new.
func NewLocalKey(new func() any) *LocalKey {
	return &LocalKey{idx: int(localKeys.Add(1)) - 1, new: new}
}

// Local returns the executing worker's instance for key, creating it on
// first use.  The value is private to the worker for the lifetime of
// the runtime: successive tasks on the same worker see the same
// instance, so state like grown scratch buffers is reused, and two
// workers never share one.
func (a *Args) Local(key *LocalKey) any {
	return a.rec.ctx.pool.local(a.worker, key)
}

// releaseLocals runs at Pool.Close, after every worker has stopped:
// values implementing Release() hand their resources back (the kernel
// scratch returns its packing arena to the size-classed pool, so
// benchmark sweeps that build a runtime per measurement point reacquire
// warm storage instead of growing fresh arenas every time).
func (p *Pool) releaseLocals() {
	for _, slots := range p.locals {
		for _, v := range slots {
			if r, ok := v.(interface{ Release() }); ok {
				r.Release()
			}
		}
	}
	p.locals = nil
}

// local serves Args.Local.  p.locals[w] is only touched by the thread
// executing as worker w.
func (p *Pool) local(w int, key *LocalKey) any {
	slots := p.locals[w]
	if key.idx < len(slots) {
		if v := slots[key.idx]; v != nil {
			return v
		}
	}
	for len(slots) <= key.idx {
		slots = append(slots, nil)
	}
	v := key.new()
	slots[key.idx] = v
	p.locals[w] = slots
	return v
}
