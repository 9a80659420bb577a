package deps

import (
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/dataid"
)

// classKey identifies a size class of renamed storage: the concrete type
// of the instance plus its length for slices — exactly the shape
// Access.Alloc produces for a given exemplar, so any pooled instance of
// a class is interchangeable with a fresh allocation.
type classKey struct {
	t reflect.Type
	n int
}

// maxFreePerClass bounds how many idle instances one size class retains
// in a private store.  Overflow on release is dropped to the garbage
// collector, so a burst of renames cannot pin its peak footprint
// forever.  A shared store scales the bound by its tenant count
// (NewStorageShared): K contexts recycling through one store deserve
// the free-list capacity K private runtimes would have had.
const maxFreePerClass = 64

// PoolStats is a snapshot of pool activity.
type PoolStats struct {
	// Hits and Misses count acquisitions served from recycled storage
	// vs. fresh Alloc() calls; Misses is the number of instances the
	// renaming engine actually allocated.
	Hits, Misses int64
	// Releases counts instances returned to a free list; Drops counts
	// instances released past the per-class bound and left to the GC.
	Releases, Drops int64
	// Forfeits counts instances that left pooled management without a
	// release (an object flipping to region mode keeps its renamed
	// storage as plain user-visible memory).
	Forfeits int64
	// LiveBytes is the renamed storage currently acquired and not yet
	// released — the gauge the runtime's memory limit blocks on.
	LiveBytes int64
	// FreeBytes is the storage idling on the free lists.
	FreeBytes int64
}

// classBucket is the free list of one size class.
type classBucket struct {
	mu   sync.Mutex
	free []any
}

// Storage is the size-classed recycling store behind one or more Pools:
// per-class free lists of renamed instances plus the counters that
// describe the lists themselves.  A Storage is safe for concurrent use
// and — unlike the Pool front-ends, which carry per-context accounting —
// may be shared: on a multi-tenant worker pool every context's tracker
// releases into and acquires from one Storage, so storage freed by one
// tenant's drained graph warms another tenant's renames, while each
// tenant keeps its own hit/miss and live-byte books.
type Storage struct {
	classes sync.Map // classKey -> *classBucket

	// maxFree is the per-class free-list bound, fixed at construction.
	maxFree int64

	releases, drops atomic.Int64
	freeBytes       atomic.Int64
}

// NewStorage creates an empty store with the private per-class bound.
func NewStorage() *Storage { return NewStorageShared(1) }

// NewStorageShared creates a store sized for tenants concurrent
// clients: the per-class free-list bound scales so K tenants sharing
// one store keep the capacity K private stores would have had.
func NewStorageShared(tenants int) *Storage {
	if tenants < 1 {
		tenants = 1
	}
	return &Storage{maxFree: int64(tenants) * maxFreePerClass}
}

// FreeBytes returns the storage idling on the free lists.
func (s *Storage) FreeBytes() int64 { return s.freeBytes.Load() }

func (s *Storage) bucket(key classKey, create bool) *classBucket {
	if b, ok := s.classes.Load(key); ok {
		return b.(*classBucket)
	}
	if !create {
		return nil
	}
	b, _ := s.classes.LoadOrStore(key, &classBucket{})
	return b.(*classBucket)
}

// take removes and returns a free instance of the class, or nil.
func (s *Storage) take(key classKey, bytes int64) any {
	b := s.bucket(key, false)
	if b == nil {
		return nil
	}
	var inst any
	b.mu.Lock()
	if n := len(b.free); n > 0 {
		inst = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	}
	b.mu.Unlock()
	if inst != nil {
		s.freeBytes.Add(-bytes)
	}
	return inst
}

// put returns an instance to its class free list, or drops it to the GC
// past the per-class bound.
func (s *Storage) put(key classKey, inst any, bytes int64) {
	b := s.bucket(key, true)
	kept := false
	b.mu.Lock()
	if int64(len(b.free)) < s.maxFree {
		b.free = append(b.free, inst)
		kept = true
	}
	b.mu.Unlock()
	if kept {
		s.releases.Add(1)
		s.freeBytes.Add(bytes)
	} else {
		s.drops.Add(1)
	}
}

// Pool recycles the storage instances the renaming engine allocates.
// The seed runtime called Alloc() for every rename and abandoned
// superseded versions to the garbage collector; the pool instead keeps
// reclaimed instances on per-class free lists so subsequent renames of
// same-shaped data reuse warm storage.  Pooled instances are returned
// with stale contents: an output rename overwrites completely by the
// Out contract, and a renamed inout is seeded by its scheduled copy, so
// no zeroing is ever needed.
//
// Acquire and release also carry the live-byte accounting: LiveBytes
// tracks renamed storage between acquisition and reclamation, which is
// what Config.MemoryLimit blocks on, and the reclaim hook gives the
// blocked submitter a wakeup signal the seed's spin-help loop lacked.
//
// The free lists themselves live in a Storage.  By default each Pool
// lazily creates a private one; Share installs a common Storage so
// several trackers (one per context on a shared worker pool) recycle
// instances across tenant boundaries while the accounting that must
// stay per-tenant — hits, misses, live bytes, the reclaim hook — stays
// on the Pool.
type Pool struct {
	store     *Storage
	storeOnce sync.Once

	hits, misses atomic.Int64
	forfeits     atomic.Int64
	liveBytes    atomic.Int64

	// onReclaim, when non-nil, runs after every live-byte decrease.
	// It must be set before the pool is first used and must not block.
	onReclaim func()
}

// Share installs st as the pool's backing store.  It must be called
// before the pool's first acquire or release.
func (p *Pool) Share(st *Storage) { p.store = st }

// storage returns the backing store, creating a private one on first
// use when none was shared.
func (p *Pool) storage() *Storage {
	p.storeOnce.Do(func() {
		if p.store == nil {
			p.store = NewStorage()
		}
	})
	return p.store
}

// SetReclaimHook registers f to run whenever live renamed bytes
// decrease (an instance is released or forfeited).  The runtime points
// it at the scheduler wakeup for the memory-limit waiter.  It must be
// called before any task is submitted.
func (p *Pool) SetReclaimHook(f func()) { p.onReclaim = f }

// LiveBytes returns the bytes of renamed storage currently acquired.
func (p *Pool) LiveBytes() int64 { return p.liveBytes.Load() }

// Stats returns a snapshot of the pool's counters.  Hits, Misses,
// Forfeits and LiveBytes are per-pool (per-context); Releases, Drops
// and FreeBytes describe the backing Storage, which may be shared.
func (p *Pool) Stats() PoolStats {
	st := p.storage()
	return PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Releases:  st.releases.Load(),
		Drops:     st.drops.Load(),
		Forfeits:  p.forfeits.Load(),
		LiveBytes: p.liveBytes.Load(),
		FreeBytes: st.freeBytes.Load(),
	}
}

// classOf maps an exemplar (or instance) to its size class and byte
// footprint.  The common slice element types bypass reflection.
func classOf(data any) (classKey, int64) {
	switch d := data.(type) {
	case []float32:
		return classKey{t: typF32, n: len(d)}, int64(len(d)) * 4
	case []float64:
		return classKey{t: typF64, n: len(d)}, int64(len(d)) * 8
	case []int64:
		return classKey{t: typI64, n: len(d)}, int64(len(d)) * 8
	case []int32:
		return classKey{t: typI32, n: len(d)}, int64(len(d)) * 4
	case []int:
		return classKey{t: typInt, n: len(d)}, int64(len(d)) * int64(intSize)
	case []byte:
		return classKey{t: typByte, n: len(d)}, int64(len(d))
	}
	v := reflect.ValueOf(data)
	k := classKey{t: v.Type()}
	if v.Kind() == reflect.Slice {
		k.n = v.Len()
	}
	return k, dataid.ByteSize(data)
}

var (
	typF32  = reflect.TypeOf([]float32(nil))
	typF64  = reflect.TypeOf([]float64(nil))
	typI64  = reflect.TypeOf([]int64(nil))
	typI32  = reflect.TypeOf([]int32(nil))
	typInt  = reflect.TypeOf([]int(nil))
	typByte = reflect.TypeOf([]byte(nil))
)

const intSize = 32 << (^uint(0) >> 63) / 8 // bytes in an int

// acquire returns a storage instance shaped like a.Data — recycled when
// the class has a free instance, freshly allocated otherwise (via
// a.Alloc, or like a.Data when a.Alloc is nil) — plus its accounted
// byte size.  The instance counts as live until released (or
// forfeited).
func (p *Pool) acquire(a *Access) (any, int64) {
	key, bytes := classOf(a.Data)
	var inst any
	// Fault-injection point: a simulated exhausted free list turns the
	// hit into a miss (fresh allocation) — correctness-neutral, but it
	// exercises the allocation path and the live-byte accounting under
	// storage pressure.
	if !chaos.ExhaustRename(bytes) {
		inst = p.storage().take(key, bytes)
	}
	if inst != nil {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		alloc := a.Alloc
		if alloc == nil {
			alloc = dataid.AllocLike(a.Data)
		}
		inst = alloc()
	}
	p.liveBytes.Add(bytes)
	return inst, bytes
}

// release returns an instance to the backing store's free list (or
// drops it to the GC past the per-class bound), decrements the live
// gauge and fires the reclaim hook.  Called from version reclamation on
// any goroutine.
func (p *Pool) release(inst any, bytes int64) {
	p.liveBytes.Add(-bytes)
	key, _ := classOf(inst)
	p.storage().put(key, inst, bytes)
	if p.onReclaim != nil {
		p.onReclaim()
	}
}

// forfeit removes an instance from pooled management without recovering
// it: the storage stays referenced (as an object's current contents)
// but is no longer the memory manager's to recycle — it falls back to
// the garbage collector, exactly like every renamed instance did in the
// seed runtime.  Used when an object flips to region mode.
func (p *Pool) forfeit(bytes int64) {
	p.liveBytes.Add(-bytes)
	p.forfeits.Add(1)
	if p.onReclaim != nil {
		p.onReclaim()
	}
}
