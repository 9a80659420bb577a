package deps

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Mode is the directionality of a task parameter (paper §II): whether the
// task only reads it, only writes it, or both.
type Mode uint8

// Parameter directionalities.
const (
	// ModeIn marks a parameter that is only read ("input" clause).
	ModeIn Mode = iota
	// ModeOut marks a parameter that is only written ("output" clause).
	// The task must overwrite it completely; the runtime relies on this
	// to rename without copying.
	ModeOut
	// ModeInOut marks a parameter that is read and written ("inout").
	ModeInOut
)

// String returns the paper's clause name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeIn:
		return "input"
	case ModeOut:
		return "output"
	case ModeInOut:
		return "inout"
	}
	return "mode(?)"
}

// Reads reports whether the mode implies reading the previous contents.
func (m Mode) Reads() bool { return m == ModeIn || m == ModeInOut }

// Writes reports whether the mode implies writing.
func (m Mode) Writes() bool { return m == ModeOut || m == ModeInOut }

// Access describes one task parameter presented to the tracker: the
// identity of the data it touches, how it touches it, and — because
// renaming needs fresh storage of the right shape — how to allocate and
// copy that storage.
type Access struct {
	// Key identifies the data object; the runtime uses the base address
	// of the backing array, exactly like the 2008 runtime keys its
	// dependency analysis on parameter memory addresses.
	Key uintptr
	// Mode is the parameter's directionality.
	Mode Mode
	// Region restricts the access to a sub-array (§V.A extension).
	// The zero Region means the whole object.
	Region Region
	// Data is the user-visible storage for the object's initial version.
	Data any
	// Alloc allocates a fresh instance with the same shape as Data.
	// nil: allocate like Data on a pool miss.
	Alloc func() any
	// Copy copies the contents of src into dst.  Required when an inout
	// parameter is renamed; may be nil otherwise.
	Copy func(dst, src any)
}

// Resolution tells the runtime which storage a task must actually operate
// on after renaming, mirroring the pointer rewriting the SMPSs compiler
// performs on task bodies.
type Resolution struct {
	// Instance is the effective storage for the parameter.
	Instance any
	// CopyFrom, when non-nil, is an earlier instance whose contents must
	// be copied into Instance immediately before the task body runs
	// (renamed inout).  The true dependency recorded on the previous
	// producer guarantees CopyFrom is complete by then.
	CopyFrom any
	// Copy is the copier to use for CopyFrom (same as Access.Copy).
	Copy func(dst, src any)
	// Renamed reports whether the tracker allocated fresh storage.
	Renamed bool
}

// version is one single-assignment instance of an object.  Versions form
// a chain: each write (out/inout) opens a new one.
//
// Each version is reference-counted:
// refs holds one count while the version is the object's current
// version, one while its producer is pending, one per live reader and
// one per renamed-inout successor that still has to copy from it.
// Each task's references are collected in its Holds and dropped by
// Tracker.Release the moment the task completes; when a *retired*
// (superseded, synced or forgotten) version drains to zero and owns
// pooled storage, that storage returns to the tracker's recycling pool.
type version struct {
	// producer is the task writing this version; nil for the initial
	// version (data that existed before any task wrote it).
	producer *graph.Node
	// readers are tasks reading this version.  The pooled lifecycle
	// needs the list only to materialize WAR edges (DisableRenaming)
	// and to seed a region flip; hazard detection uses nreaders.
	readers []*graph.Node
	// instance is the effective storage of this version.
	instance any

	// owned marks instance as pool-managed renamed storage; bytes is
	// its accounted size.  An in-place write transfers ownership to the
	// successor version (they share the instance).
	owned bool
	bytes int64

	// refs counts the holds keeping the instance alive (see above).
	refs atomic.Int32
	// nreaders counts live readers only — the O(1) hazard probe that
	// replaces the seed's lazy Done() scan over the reader list.
	nreaders atomic.Int32
	// retired marks the version no longer current: eligible for
	// reclamation once refs drains to zero.
	retired atomic.Bool
	// reclaimed guards the pool release so it happens exactly once.
	reclaimed atomic.Bool
}

// newVersion creates a version holding the current-version reference
// plus, when a producer is given, the pending-producer reference.
func newVersion(producer *graph.Node, instance any) *version {
	v := &version{producer: producer, instance: instance}
	n := int32(1)
	if producer != nil {
		n++
	}
	v.refs.Store(n)
	return v
}

func (v *version) producerPending() bool {
	return v.producer != nil && !v.producer.Done()
}

func (v *version) pruneReaders() {
	live := v.readers[:0]
	for _, r := range v.readers {
		if !r.Done() {
			live = append(live, r)
		}
	}
	v.readers = live
}

// drop releases one task hold on v; a reader hold also leaves the live
// reader count.
func (v *version) drop(p *Pool, reader bool) {
	if reader {
		v.nreaders.Add(-1)
	}
	v.release(p)
}

// release drops one reference; the last reference of a retired version
// reclaims its owned storage into the pool.  Runs without the shard
// lock (Tracker.Release calls it from worker goroutines).
func (v *version) release(p *Pool) {
	if v.refs.Add(-1) == 0 && v.retired.Load() {
		v.reclaim(p)
	}
}

// retire marks the version no longer current and drops the
// current-version reference.  Each version is retired exactly once —
// when superseded by a write, synced back, or forgotten.
func (v *version) retire(p *Pool) {
	if v.retired.Swap(true) {
		panic("deps: version retired twice")
	}
	if v.refs.Add(-1) == 0 {
		v.reclaim(p)
	}
}

func (v *version) reclaim(p *Pool) {
	if !v.owned || v.reclaimed.Swap(true) {
		return
	}
	p.release(v.instance, v.bytes)
}

// regionAccess is one entry in the access history of a region-tracked
// object.
type regionAccess struct {
	region Region
	mode   Mode
	task   *graph.Node
}

// object is the tracker's record for one base address.
//
// An object starts in versioned mode, where whole-object accesses build a
// renamed version chain.  The first partial-region access flips it to
// region mode, where an access history is kept and overlapping accesses
// are ordered with real edges (including anti- and output dependencies:
// renaming of partial objects is out of scope, which is exactly why the
// 2008 runtime shipped representants instead).
type object struct {
	key      uintptr
	cur      *version
	regioned bool
	hist     []regionAccess
	// original is the user-visible storage the object was registered
	// with; renaming may leave the logically-current contents in a
	// different instance, and SyncBack restores them.
	original any
	// copier is the content copier captured from the first access that
	// supplied one.
	copier func(dst, src any)
	// diverged is set when the current version lives in renamed storage
	// rather than in original.
	diverged bool
}

// Stats aggregates tracker activity for reporting and tests.
type Stats struct {
	// Objects is the number of distinct base addresses ever tracked.
	Objects int64
	// Renames counts instances acquired (pooled or fresh) to break
	// WAW/WAR hazards.
	Renames int64
	// RenamesElided counts writes that found the previous task-written
	// version's hazard dead — producer complete, reader count drained —
	// and proceeded in place, skipping the rename (and, for inout, the
	// seed copy) entirely.
	RenamesElided int64
	// RenameCopies counts renamed inout parameters (each costs one
	// content copy at task start).
	RenameCopies int64
	// PoolHits and PoolMisses count renames served from recycled
	// storage vs. fresh Alloc() calls.  They live in the pool, not the
	// shards; Tracker.Stats fills them into the summed snapshot.
	PoolHits, PoolMisses int64
	// TrueEdges counts read-after-write dependencies discovered at
	// analysis time.  For version-tracked objects a dependency whose
	// producer already completed adds no graph edge (it is already
	// satisfied) but still counts, so the counter is a deterministic
	// property of the submission order at any worker count — not of
	// completion timing.  Region-tracked objects keep only live history
	// (completed accesses are pruned), so their share of the counter
	// remains timing-dependent.
	TrueEdges int64
	// FalseEdges counts WAR/WAW edges added; nonzero only for
	// region-tracked objects or when renaming is disabled.
	FalseEdges int64
	// RegionObjects counts objects that flipped into region mode.
	RegionObjects int64
}

// add accumulates o into s; keep it next to the struct so new counters
// cannot be forgotten by the per-shard aggregation.
func (s *Stats) add(o Stats) {
	s.Objects += o.Objects
	s.Renames += o.Renames
	s.RenamesElided += o.RenamesElided
	s.RenameCopies += o.RenameCopies
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.TrueEdges += o.TrueEdges
	s.FalseEdges += o.FalseEdges
	s.RegionObjects += o.RegionObjects
}

// shard is one lock stripe of the tracker: a mutex, the objects hashed
// onto the stripe, and the stripe's share of the counters.  The trailing
// padding keeps neighbouring shards off the same cache line so that
// concurrent submitters do not false-share the mutexes.
type shard struct {
	mu      sync.Mutex
	objects map[uintptr]*object
	stats   Stats
	_       [64]byte
}

// MaxShards caps the shard count so the batched-analysis lock set fits in
// one machine word (the canonical-order lock pass walks a uint64 bitmask).
const MaxShards = 64

// Tracker performs dependency analysis for a single runtime instance.
//
// The object table is split into power-of-two lock-striped shards keyed
// by a hash of the data identity (the base address), so concurrent
// submitters touching disjoint data proceed without serializing on a
// single global mutex.  Single accesses lock exactly one shard;
// AnalyzeBatch locks every shard the batch touches in canonical
// (ascending-index) order, which keeps concurrent cross-shard
// submissions deadlock-free.
type Tracker struct {
	g *graph.Graph

	// DisableRenaming turns the renaming engine off: hazards become real
	// WAR/WAW edges.  Used by the ablation benchmarks.
	DisableRenaming bool

	// AffinityHints makes analysis record on each task node the worker
	// that produced the version it accesses, when that producer has
	// already completed: the scheduler's cue for placing a task that is
	// ready at submission on the deque whose owner's cache plausibly
	// still holds its operands (core.Config.Locality).  A still-pending
	// producer needs no hint — its completion routes the successor
	// through the releasing worker.
	AffinityHints bool

	pool   Pool
	shards []shard
	shift  uint // 64 - log2(len(shards)), for Fibonacci hashing
}

// NewTracker creates a tracker that adds edges to g, with the default
// shard count (enough stripes to cover the machine's parallelism).
func NewTracker(g *graph.Graph) *Tracker { return NewTrackerShards(g, 0) }

// NewTrackerShards creates a tracker with an explicit shard count,
// rounded up to a power of two and clamped to [1, MaxShards].  n <= 0
// selects the default; n == 1 degenerates to the single global mutex the
// ablation benchmarks use as their baseline.
func NewTrackerShards(g *graph.Graph, n int) *Tracker {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > MaxShards {
		n = MaxShards
	}
	n = 1 << bits.Len(uint(n-1)) // next power of two
	t := &Tracker{g: g, shards: make([]shard, n), shift: uint(64 - bits.Len(uint(n-1)))}
	for i := range t.shards {
		t.shards[i].objects = make(map[uintptr]*object)
	}
	return t
}

// Shards returns the number of lock stripes.
func (t *Tracker) Shards() int { return len(t.shards) }

// shardIndex maps a data identity onto its stripe index.  Keys are base
// addresses whose low bits carry no entropy (allocator alignment), so
// Fibonacci hashing spreads them through the stripes via the
// multiplier's high bits.
func (t *Tracker) shardIndex(key uintptr) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

func (t *Tracker) shardOf(key uintptr) *shard {
	return &t.shards[t.shardIndex(key)]
}

// Stats returns a snapshot of the tracker's counters, summed across
// shards and merged with the pool's hit/miss counters.
func (t *Tracker) Stats() Stats {
	var total Stats
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		s := sh.stats
		sh.mu.Unlock()
		total.add(s)
	}
	ps := t.pool.Stats()
	total.PoolHits, total.PoolMisses = ps.Hits, ps.Misses
	return total
}

// PoolStats returns a snapshot of the recycling pool's counters.
func (t *Tracker) PoolStats() PoolStats { return t.pool.Stats() }

// ShareStorage points the tracker's rename pool at a shared size-classed
// store, so several trackers — one per context on a shared worker pool —
// recycle renamed instances across tenant boundaries.  Per-tenant
// accounting (hits, misses, live bytes, the reclaim hook) stays with
// this tracker.  Must be called before the first access.
func (t *Tracker) ShareStorage(st *Storage) { t.pool.Share(st) }

// LiveRenamedBytes returns the bytes of renamed storage currently
// acquired and not yet reclaimed — the runtime's memory-limit gauge.
func (t *Tracker) LiveRenamedBytes() int64 { return t.pool.LiveBytes() }

// SetReclaimHook registers f to run whenever renamed storage is
// reclaimed (live bytes decrease).  The runtime points it at the
// memory-limit waiter's wakeup.  Must be called before any access.
func (t *Tracker) SetReclaimHook(f func()) { t.pool.SetReclaimHook(f) }

func (sh *shard) lookup(a Access) *object {
	obj := sh.objects[a.Key]
	if obj == nil {
		obj = &object{key: a.Key, cur: newVersion(nil, a.Data), original: a.Data}
		sh.objects[a.Key] = obj
		sh.stats.Objects++
	}
	if obj.copier == nil && a.Copy != nil {
		obj.copier = a.Copy
	}
	return obj
}

// versionHold is one reference a task holds on a version until it
// completes: a live-reader hold (counted in nreaders too) or a plain
// lifetime hold (pending producer, renamed-inout copy source).
type versionHold struct {
	v      *version
	reader bool
}

// inlineHolds is the number of holds a Holds stores without allocating:
// one per data parameter plus one for a renamed inout's copy source
// covers the one- to three-parameter tasks that dominate real programs.
const inlineHolds = 4

// Holds collects the version references one task acquires during
// analysis, to be dropped together by Tracker.Release when the task
// completes.  The zero value is empty and ready to use.  It is meant to
// be embedded in the caller's per-task record: the first inlineHolds
// entries live inline (a bit mask marks the reader holds), only the
// rest spill to a heap slice.
type Holds struct {
	n       uint32
	readers uint32
	inline  [inlineHolds]*version
	spill   []versionHold
}

func (h *Holds) add(v *version, reader bool) {
	if h.n < inlineHolds {
		h.inline[h.n] = v
		if reader {
			h.readers |= 1 << h.n
		}
	} else {
		h.spill = append(h.spill, versionHold{v: v, reader: reader})
	}
	h.n++
}

// Release drops every reference in h and empties it, so a completed
// task's record pins no version.  The caller invokes it once the task
// has completed (after graph.Complete); it runs on any goroutine
// without the shard locks.
func (t *Tracker) Release(h *Holds) {
	for i := range min(h.n, inlineHolds) {
		h.inline[i].drop(&t.pool, h.readers&(1<<i) != 0)
	}
	for _, hd := range h.spill {
		hd.v.drop(&t.pool, hd.reader)
	}
	*h = Holds{}
}

// releaseOnComplete hands h to a completion observer on node, for
// callers that keep no per-task record to release it from.  Called
// after the shard locks are released; the node cannot complete before
// Seal, which the submitter calls later.
func (t *Tracker) releaseOnComplete(node *graph.Node, h *Holds) {
	if h.n == 0 {
		return
	}
	held := *h
	node.OnComplete(func() { t.Release(&held) })
}

// Analyze resolves one parameter access for task node, adding the
// dependency edges it implies.  It must be called after graph.AddNode and
// before graph.Seal for the node.
func (t *Tracker) Analyze(node *graph.Node, a Access) Resolution {
	var h Holds
	sh := t.shardOf(a.Key)
	sh.mu.Lock()
	res := t.analyzeLocked(sh, node, a, &h)
	sh.mu.Unlock()
	t.releaseOnComplete(node, &h)
	return res
}

// AnalyzeBatch is AnalyzeInto for callers without a per-task record:
// the version holds are released by a completion observer on node.
func (t *Tracker) AnalyzeBatch(node *graph.Node, accs []Access, out []Resolution) []Resolution {
	var h Holds
	out = t.AnalyzeInto(node, accs, out, &h)
	t.releaseOnComplete(node, &h)
	return out
}

// AnalyzeInto resolves every access of one task in submission order,
// entering the tracker once: all shards the accesses hash onto are locked
// up front in ascending index order (the canonical order that makes
// concurrent cross-shard batches deadlock-free), the accesses analyzed,
// and the shards released.  Results are appended to out and returned;
// callers reuse out across batches to avoid per-task allocation.  The
// version references the task acquires are added to h, which the caller
// must pass to Release once the node has completed.
func (t *Tracker) AnalyzeInto(node *graph.Node, accs []Access, out []Resolution, h *Holds) []Resolution {
	if len(accs) == 0 {
		return out
	}
	// Collect the shard set as a bitmask (len(shards) <= MaxShards = 64).
	var mask uint64
	for i := range accs {
		mask |= 1 << uint(t.shardIndex(accs[i].Key))
	}
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
	for i := range accs {
		out = append(out, t.analyzeLocked(t.shardOf(accs[i].Key), node, accs[i], h))
	}
	for m := mask; m != 0; m &= m - 1 {
		t.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
	return out
}

// analyzeLocked dispatches one access; the caller holds sh.mu.  holds
// accumulates the version references the node acquires.
func (t *Tracker) analyzeLocked(sh *shard, node *graph.Node, a Access, holds *Holds) Resolution {
	obj := sh.lookup(a)
	if obj.regioned || !a.Region.IsFull() {
		return t.analyzeRegion(sh, node, obj, a)
	}
	switch a.Mode {
	case ModeIn:
		return t.analyzeIn(sh, node, obj, holds)
	case ModeOut:
		return t.analyzeOut(sh, node, obj, a, holds)
	case ModeInOut:
		return t.analyzeInOut(sh, node, obj, a, holds)
	}
	panic("deps: invalid access mode")
}

// hintAffinity records on node the worker that executed the producer of
// the version an access touches, when that producer has already
// completed.  The last qualifying access wins; tasks with a pending
// producer are released by its completion and placed by releasedBy
// instead.
func (t *Tracker) hintAffinity(node *graph.Node, v *version) {
	if !t.AffinityHints || v.producer == nil || !v.producer.Done() {
		return
	}
	node.SetAffinity(v.producer.ExecutedBy())
}

// trueDep accounts one read-after-write dependency of node on the
// producer of v (nil-producer versions are pre-existing data).  The
// physical edge is added only while the producer is pending; the
// counter increments either way, keeping Stats.TrueEdges deterministic
// at any worker count.  Callers hold the shard lock.
func (t *Tracker) trueDep(sh *shard, node *graph.Node, v *version) {
	if v.producer == nil {
		return
	}
	sh.stats.TrueEdges++
	if v.producerPending() {
		t.g.AddEdge(v.producer, node)
	}
}

func (t *Tracker) analyzeIn(sh *shard, node *graph.Node, obj *object, holds *Holds) Resolution {
	v := obj.cur
	t.trueDep(sh, node, v)
	t.hintAffinity(node, v)
	v.pruneReaders()
	v.readers = append(v.readers, node)
	v.nreaders.Add(1)
	v.refs.Add(1)
	holds.add(v, true)
	return Resolution{Instance: v.instance}
}

// supersede installs nv as the object's current version.  When the
// write happened in place (instances shared), ownership of pooled
// storage moves to nv; either way the old version is retired, so its
// instance returns to the pool once its remaining consumers drain.
func (t *Tracker) supersede(obj *object, v, nv *version, renamed bool, bytes int64) {
	if renamed {
		nv.owned, nv.bytes = true, bytes
		obj.diverged = true
	} else {
		nv.owned, nv.bytes = v.owned, v.bytes
		v.owned = false
	}
	obj.cur = nv
	v.retire(&t.pool)
}

func (t *Tracker) analyzeOut(sh *shard, node *graph.Node, obj *object, a Access, holds *Holds) Resolution {
	v := obj.cur
	hazard := v.producerPending() || v.nreaders.Load() > 0
	res := Resolution{Instance: v.instance}
	var bytes int64
	renamed := false
	if hazard {
		if t.DisableRenaming {
			// Ablation path: materialize the false dependencies.
			if v.producerPending() {
				t.g.AddEdge(v.producer, node) // WAW
				sh.stats.FalseEdges++
			}
			v.pruneReaders()
			for _, r := range v.readers {
				t.g.AddEdge(r, node) // WAR
				sh.stats.FalseEdges++
			}
		} else {
			res.Instance, bytes = t.pool.acquire(&a)
			res.Renamed, renamed = true, true
			sh.stats.Renames++
		}
	} else if !t.DisableRenaming && v.producer != nil {
		// Dead WAW: the previous version was task-written, but its
		// producer has completed and every reader drained, so the
		// overwrite proceeds in place — no rename, no fresh storage.
		sh.stats.RenamesElided++
	}
	if !renamed {
		// The write lands in the previous version's storage, so the
		// producer's worker cache hint is real.  A renamed write
		// targets fresh pooled storage the hinted worker never touched
		// — no hint (a renamed *inout* still hints: its seed copy
		// reads the hinted worker's hot data).
		t.hintAffinity(node, v)
	}
	nv := newVersion(node, res.Instance)
	holds.add(nv, false)
	t.supersede(obj, v, nv, renamed, bytes)
	return res
}

func (t *Tracker) analyzeInOut(sh *shard, node *graph.Node, obj *object, a Access, holds *Holds) Resolution {
	v := obj.cur
	res := Resolution{Instance: v.instance}
	t.trueDep(sh, node, v) // RAW: the task reads the old value
	t.hintAffinity(node, v)
	var bytes int64
	renamed := false
	if v.nreaders.Load() > 0 {
		if t.DisableRenaming {
			v.pruneReaders()
			for _, r := range v.readers {
				t.g.AddEdge(r, node) // WAR
				sh.stats.FalseEdges++
			}
		} else {
			// Rename: write into acquired storage seeded from the
			// previous version.  The RAW edge above guarantees the
			// source is complete when the copy runs; the extra
			// reference below guarantees the pool does not recycle the
			// source instance before the copy has happened.
			res.Instance, bytes = t.pool.acquire(&a)
			res.CopyFrom = v.instance
			res.Copy = a.Copy
			res.Renamed, renamed = true, true
			v.refs.Add(1)
			holds.add(v, false)
			sh.stats.Renames++
			sh.stats.RenameCopies++
		}
	} else if !t.DisableRenaming && v.producer != nil && !v.producerPending() {
		// Dead WAR/WAW: every reader of the task-written previous
		// version drained and its producer completed — update in place,
		// skipping both the rename and the inout seed copy.
		sh.stats.RenamesElided++
	}
	nv := newVersion(node, res.Instance)
	holds.add(nv, false)
	t.supersede(obj, v, nv, renamed, bytes)
	return res
}

// analyzeRegion handles accesses on region-tracked objects: every
// overlapping, still-incomplete earlier access where at least one side
// writes becomes an edge.
func (t *Tracker) analyzeRegion(sh *shard, node *graph.Node, obj *object, a Access) Resolution {
	if !obj.regioned {
		t.flipToRegioned(sh, obj)
	}
	live := obj.hist[:0]
	for _, h := range obj.hist {
		if h.task.Done() {
			continue
		}
		live = append(live, h)
		if !h.region.Overlaps(a.Region) {
			continue
		}
		if !a.Mode.Writes() && !h.mode.Writes() {
			continue // read-read never orders
		}
		t.g.AddEdge(h.task, node)
		if a.Mode.Reads() && h.mode.Writes() {
			sh.stats.TrueEdges++
		} else {
			sh.stats.FalseEdges++
		}
	}
	obj.hist = append(live, regionAccess{region: a.Region, mode: a.Mode, task: node})
	return Resolution{Instance: obj.cur.instance}
}

// flipToRegioned converts a versioned object into region mode, seeding the
// access history from the current version's pending producer and readers.
func (t *Tracker) flipToRegioned(sh *shard, obj *object) {
	obj.regioned = true
	sh.stats.RegionObjects++
	v := obj.cur
	if v.producerPending() {
		obj.hist = append(obj.hist, regionAccess{region: Full, mode: ModeOut, task: v.producer})
	}
	v.pruneReaders()
	for _, r := range v.readers {
		obj.hist = append(obj.hist, regionAccess{region: Full, mode: ModeIn, task: r})
	}
	v.readers = nil
	// Region mode keeps no per-access reference counts (renaming of
	// partial objects is out of scope, exactly as in the 2008 runtime),
	// so a diverged current version's storage cannot be recycled safely:
	// forfeit it from pooled management and let the garbage collector
	// handle it, as the seed did for every renamed instance.
	if v.owned {
		v.owned = false
		t.pool.forfeit(v.bytes)
	}
}

// PendingWriters returns the still-incomplete tasks that write data
// overlapping the given region of the object at key.  The runtime's
// WaitOn primitive blocks (and helps execute tasks) until they are all
// done, after which the main thread may safely read the region.
func (t *Tracker) PendingWriters(key uintptr, r Region) []*graph.Node {
	sh := t.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj := sh.objects[key]
	if obj == nil {
		return nil
	}
	var out []*graph.Node
	if obj.regioned {
		for _, h := range obj.hist {
			if h.mode.Writes() && !h.task.Done() && h.region.Overlaps(r) {
				out = append(out, h.task)
			}
		}
		return out
	}
	if obj.cur.producerPending() {
		out = append(out, obj.cur.producer)
	}
	return out
}

// CurrentInstance returns the storage holding the logically current
// contents of the object at key (the latest version after any renaming),
// or nil if the object was never tracked.  The main thread must WaitOn
// the object first for the contents to be meaningful.
func (t *Tracker) CurrentInstance(key uintptr) any {
	sh := t.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj := sh.objects[key]
	if obj == nil {
		return nil
	}
	return obj.cur.instance
}

// SyncObject copies the logically-current contents of the object at key
// back into the user's original storage if renaming moved them, and
// resets the version chain onto the original storage.  It must only be
// called when no task touching the object is pending (after WaitOn or a
// barrier).  It reports whether a copy was performed.
func (t *Tracker) SyncObject(key uintptr) bool {
	sh := t.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj := sh.objects[key]
	if obj == nil {
		return false
	}
	return t.syncLocked(obj)
}

// SyncAll applies SyncObject to every tracked object and returns the
// number of copies performed.  The runtime calls it from Barrier so that,
// as in SMPSs, renaming stays invisible: after a barrier the program sees
// all results in the variables it named.
//
// It must only be called from the submitting thread with no pending
// tasks.  The shard locks are held only to collect the diverged objects
// and reset their version chains; the content copies — the expensive
// part on large renamed data — run after each stripe's lock is
// released, so SyncAll never holds a stripe for the duration of a
// memcpy.  The superseded versions are retired only after their
// contents have been copied out, so the pool cannot recycle a source
// instance mid-copy.
func (t *Tracker) SyncAll() int {
	type syncWork struct {
		dst, src any
		copier   func(dst, src any)
		old      *version
	}
	var work []syncWork
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, obj := range sh.objects {
			if !obj.diverged {
				continue
			}
			if obj.cur.producerPending() {
				sh.mu.Unlock()
				panic("deps: SyncAll called with a pending writer")
			}
			if obj.copier == nil {
				sh.mu.Unlock()
				panic("deps: diverged object has no copier")
			}
			old := obj.cur
			work = append(work, syncWork{dst: obj.original, src: old.instance, copier: obj.copier, old: old})
			obj.cur = newVersion(nil, obj.original)
			obj.diverged = false
		}
		sh.mu.Unlock()
	}
	for _, w := range work {
		w.copier(w.dst, w.src)
		w.old.retire(&t.pool)
	}
	return len(work)
}

func (t *Tracker) syncLocked(obj *object) bool {
	if !obj.diverged {
		return false
	}
	if obj.cur.producerPending() {
		panic("deps: SyncObject called with a pending writer")
	}
	if obj.copier == nil {
		panic("deps: diverged object has no copier")
	}
	obj.copier(obj.original, obj.cur.instance)
	old := obj.cur
	obj.cur = newVersion(nil, obj.original)
	obj.diverged = false
	// Any late readers of the superseded renamed instance still hold
	// references; the pool gets the instance back only when the last of
	// them completes.
	old.retire(&t.pool)
	return true
}

// Forget drops all tracking state for the object at key; the next access
// re-registers it with whatever storage the access names.  Used by
// programs that recycle buffers for unrelated data.
//
// Contract: Forget does NOT sync renamed contents back — if the object
// has diverged, the logically-current contents in renamed storage are
// discarded and the user's original storage keeps whatever it last
// held.  Call SyncObject (or WaitOn/Barrier) first if the contents
// matter.  The object's current renamed instance is released back to
// the recycling pool once its remaining consumers complete, so Forget
// never leaks pool accounting; superseded versions already manage
// themselves through their reference counts.
func (t *Tracker) Forget(key uintptr) {
	sh := t.shardOf(key)
	sh.mu.Lock()
	obj := sh.objects[key]
	delete(sh.objects, key)
	sh.mu.Unlock()
	if obj == nil {
		return
	}
	obj.cur.retire(&t.pool)
}
