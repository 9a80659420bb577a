package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestPoolSharedByConcurrentContexts is the multi-tenancy canary: eight
// contexts submit dependency chains concurrently on one shared pool
// (run under -race), and every context's results must match the
// sequential semantics of its own program, untouched by its neighbours.
func TestPoolSharedByConcurrentContexts(t *testing.T) {
	const (
		clients = 8
		chains  = 4
		depth   = 60
	)
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 4, MaxContexts: clients})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	ctxs := make([]*Context, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := pool.NewContext(ContextConfig{GraphLimit: 64})
			if err != nil {
				errs[k] = err
				return
			}
			ctxs[k] = c
			defer c.Close()
			// Each client owns its data: chains of fill + repeated scale,
			// whose final values depend on every link running in order.
			bufs := make([][]float32, chains)
			seed := float32(k + 2)
			for i := range bufs {
				bufs[i] = make([]float32, 16)
				c.Submit(fillDef, Out(bufs[i]), Value(float64(seed)))
				for d := 0; d < depth; d++ {
					c.Submit(scaleDef, InOut(bufs[i]), Value(1.01))
				}
			}
			if err := c.Barrier(); err != nil {
				errs[k] = err
				return
			}
			want := seed
			for d := 0; d < depth; d++ {
				want *= 1.01
			}
			for i := range bufs {
				for j, got := range bufs[i] {
					if got != want {
						t.Errorf("client %d chain %d[%d] = %g, want %g", k, i, j, got, want)
						return
					}
				}
			}
			st := c.Stats()
			if st.TasksExecuted != chains*(depth+1) {
				t.Errorf("client %d executed %d tasks, want %d", k, st.TasksExecuted, chains*(depth+1))
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", k, err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	gate.check(ctxs...)
}

// TestBarrierIsolation pins the fairness contract: a barrier in one
// context completes while another context still has an open (running)
// task, because barriers only wait on their own context's outstanding
// work and the submitter's helping never executes another tenant's
// tasks.
func TestBarrierIsolation(t *testing.T) {
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 2, MaxContexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow, fast := mustCtx(t, pool), mustCtx(t, pool)

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := NewTaskDef("blocker", func(a *Args) {
		close(started)
		<-release
	})
	sbuf := make([]float32, 4)
	if err := slow.Submit(blocker, InOut(sbuf)); err != nil {
		t.Fatal(err)
	}
	<-started // the slow context's task is now occupying a pool worker

	fbuf := make([]float32, 8)
	fast.Submit(fillDef, Out(fbuf), Value(3.0))
	for i := 0; i < 16; i++ {
		fast.Submit(scaleDef, InOut(fbuf), Value(2.0))
	}
	done := make(chan error, 1)
	go func() { done <- fast.Barrier() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fast context's barrier stuck behind the slow context's open task")
	}
	if open := slow.Stats().TasksExecuted; open != 0 {
		t.Fatalf("slow context completed %d tasks while blocked", open)
	}
	close(release)
	if err := slow.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fast.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	gate.check(slow, fast)
}

// TestStatsIsolation pins per-context accounting: two tenants with
// different workloads on one pool report exactly their own task,
// rename and scheduler counters — nothing bleeds across.
func TestStatsIsolation(t *testing.T) {
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 2, MaxContexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustCtx(t, pool), mustCtx(t, pool)

	abuf := make([]float32, 8)
	const aTasks = 40
	for i := 0; i < aTasks; i++ {
		a.Submit(scaleDef, InOut(abuf), Value(1.0))
	}
	if err := a.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Context b forces renames: writers over a still-read buffer.
	bx, by := make([]float32, 8), make([]float32, 8)
	const bRounds = 10
	for i := 0; i < bRounds; i++ {
		b.Submit(fillDef, Out(bx), Value(float64(i)))
		b.Submit(axpyDef, In(bx), InOut(by), Value(1.0))
	}
	if err := b.Barrier(); err != nil {
		t.Fatal(err)
	}

	sa, sb := a.Stats(), b.Stats()
	if sa.TasksSubmitted != aTasks || sa.TasksExecuted != aTasks {
		t.Fatalf("context a counted %d/%d tasks, want %d", sa.TasksSubmitted, sa.TasksExecuted, aTasks)
	}
	if sb.TasksSubmitted != 2*bRounds || sb.TasksExecuted != 2*bRounds {
		t.Fatalf("context b counted %d/%d tasks, want %d", sb.TasksSubmitted, sb.TasksExecuted, 2*bRounds)
	}
	if sa.Renames != 0 {
		t.Fatalf("context a reports %d renames from context b's workload", sa.Renames)
	}
	if sa.Deps.Objects != 1 || sb.Deps.Objects != 2 {
		t.Fatalf("tracked objects bleed: a=%d (want 1), b=%d (want 2)", sa.Deps.Objects, sb.Deps.Objects)
	}
	pushesA := sa.Sched.PushHigh + sa.Sched.PushOwn + sa.Sched.PushMain
	pushesB := sb.Sched.PushHigh + sb.Sched.PushOwn + sb.Sched.PushMain
	if pushesA != aTasks || pushesB != 2*bRounds {
		t.Fatalf("scheduler pushes bleed: a=%d (want %d), b=%d (want %d)",
			pushesA, aTasks, pushesB, 2*bRounds)
	}
	closeAll(t, pool, a, b)
	gate.check(a, b)
}

// TestClosedSubmissionTypedErrors pins the error contract: submissions
// to a closed context (and context creation on a closed pool) return a
// ClosedError instead of panicking.
func TestClosedSubmissionTypedErrors(t *testing.T) {
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 1, MaxContexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := mustCtx(t, pool)
	buf := make([]float32, 4)
	batch := c.NewBatch()
	batch.Add(fillDef, Out(buf), Value(1.0))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var ce *ClosedError
	if err := c.Submit(fillDef, Out(buf), Value(1.0)); !errors.As(err, &ce) || ce.Entity != "context" {
		t.Fatalf("Submit on closed context: %v, want *ClosedError{context}", err)
	}
	if err := c.SubmitBatch(Call(fillDef, Out(buf), Value(1.0))); !errors.As(err, &ce) {
		t.Fatalf("SubmitBatch on closed context: %v, want *ClosedError", err)
	}
	if err := batch.Submit(); !errors.As(err, &ce) {
		t.Fatalf("Batch.Submit on closed context: %v, want *ClosedError", err)
	}
	if batch.Len() != 0 {
		t.Fatalf("failed Batch.Submit must still reset the batch, Len = %d", batch.Len())
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	gate.check(c)
	if _, err := pool.NewContext(ContextConfig{}); !errors.As(err, &ce) || ce.Entity != "pool" {
		t.Fatalf("NewContext on closed pool: %v, want *ClosedError{pool}", err)
	}
}

// TestPoolSizingValidation pins the one-place sizing rules: negative
// counts are typed configuration errors, zero values pick the defaults,
// and context slots are a hard, recycled capacity.
func TestPoolSizingValidation(t *testing.T) {
	var cfgErr *ConfigError
	if _, err := NewPool(PoolConfig{Workers: -1}); !errors.As(err, &cfgErr) || cfgErr.Field != "Workers" {
		t.Fatalf("Workers=-1: %v, want *ConfigError{Workers}", err)
	}
	if _, err := NewPool(PoolConfig{MaxContexts: -2}); !errors.As(err, &cfgErr) || cfgErr.Field != "MaxContexts" {
		t.Fatalf("MaxContexts=-2: %v, want *ConfigError{MaxContexts}", err)
	}
	if _, err := NewPool(PoolConfig{Workers: 1, MaxContexts: maxPoolSlots}); !errors.As(err, &cfgErr) {
		t.Fatalf("oversized slots: %v, want *ConfigError", err)
	}

	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pool.MaxContexts() != DefaultMaxContexts {
		t.Fatalf("MaxContexts defaulted to %d, want %d", pool.MaxContexts(), DefaultMaxContexts)
	}

	// Exhaust the slots, then show closing one recycles it.
	ctxs := make([]*Context, 0, DefaultMaxContexts)
	for i := 0; i < DefaultMaxContexts; i++ {
		ctxs = append(ctxs, mustCtx(t, pool))
	}
	if _, err := pool.NewContext(ContextConfig{}); !errors.As(err, &cfgErr) || cfgErr.Field != "MaxContexts" {
		t.Fatalf("slot exhaustion: %v, want *ConfigError{MaxContexts}", err)
	}
	if err := ctxs[3].Close(); err != nil {
		t.Fatal(err)
	}
	reused, err := pool.NewContext(ContextConfig{})
	if err != nil {
		t.Fatalf("slot not recycled after Close: %v", err)
	}
	ctxs[3] = reused

	// Close refuses while tenants are attached, so no tasks strand.
	if err := pool.Close(); !errors.As(err, &cfgErr) || cfgErr.Field != "Contexts" {
		t.Fatalf("Close with open contexts: %v, want *ConfigError{Contexts}", err)
	}
	closeAll(t, pool, ctxs...)
	gate.check(ctxs...)
}

// TestSharedTracerCarriesContextDimension checks a tracer shared by two
// contexts separates their events by context id, so the merged Paraver
// timeline stays attributable.
func TestSharedTracerCarriesContextDimension(t *testing.T) {
	tr := trace.New()
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 1, MaxContexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pool.NewContext(ContextConfig{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.NewContext(ContextConfig{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	abuf, bbuf := make([]float32, 4), make([]float32, 4)
	a.Submit(fillDef, Out(abuf), Value(1.0))
	b.Submit(fillDef, Out(bbuf), Value(2.0))
	closeAll(t, pool, a, b)
	gate.check(a, b)

	perCtx := map[int]int{}
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvStart {
			perCtx[ev.Ctx]++
		}
	}
	if perCtx[a.ID()] != 1 || perCtx[b.ID()] != 1 {
		t.Fatalf("start events per context = %v, want one for ctx %d and one for ctx %d",
			perCtx, a.ID(), b.ID())
	}
}

// TestRuntimeAndPoolCoexist runs a private Runtime while a shared pool
// serves a context, exercising two independent instances of the whole
// stack in one process.
func TestRuntimeAndPoolCoexist(t *testing.T) {
	gate := newLeakGate(t)
	rt := New(Config{Workers: 2})
	pool, err := NewPool(PoolConfig{Workers: 1, MaxContexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := mustCtx(t, pool)
	rbuf, cbuf := make([]float32, 8), make([]float32, 8)
	rt.Submit(fillDef, Out(rbuf), Value(5.0))
	c.Submit(fillDef, Out(cbuf), Value(7.0))
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	closeAll(t, pool, c)
	gate.check(c)
	if rbuf[0] != 5 || cbuf[0] != 7 {
		t.Fatalf("results crossed: runtime %g (want 5), context %g (want 7)", rbuf[0], cbuf[0])
	}
}

func mustCtx(t *testing.T, p *Pool) *Context {
	t.Helper()
	c, err := p.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func closeAll(t *testing.T, p *Pool, ctxs ...*Context) {
	t.Helper()
	for _, c := range ctxs {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedStorageCrossTenantReuse pins the deterministic half of the
// multi-tenant acceptance: renamed storage freed by one tenant's
// drained graph warms the next tenant's renames through the pool's
// shared store.  The hazards are engineered (readers gated on a
// channel), so every write renames and the counts are exact.
func TestSharedStorageCrossTenantReuse(t *testing.T) {
	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 1, MaxContexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	const objs, n = 4, 1024
	churn := func(c *Context) Stats {
		gate := make(chan struct{})
		consume := NewTaskDef("gated_consume", func(a *Args) { <-gate })
		bufs := make([][]float32, objs)
		for i := range bufs {
			bufs[i] = make([]float32, n)
			if err := c.Submit(consume, In(bufs[i])); err != nil {
				t.Fatal(err)
			}
			// The reader is gated, so this write's hazard is certainly
			// live: the tracker must rename.
			if err := c.Submit(fillDef, Out(bufs[i]), Value(1.0)); err != nil {
				t.Fatal(err)
			}
		}
		close(gate)
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}

	a := mustCtx(t, pool)
	first := churn(a)
	if first.Renames != objs {
		t.Fatalf("first tenant renamed %d times, want %d", first.Renames, objs)
	}
	if first.PoolHits != 0 {
		t.Fatalf("first tenant hit the empty store %d times", first.PoolHits)
	}
	if first.LiveRenamedBytes != 0 {
		t.Fatalf("first tenant leaks %d live renamed bytes after barrier", first.LiveRenamedBytes)
	}

	b := mustCtx(t, pool)
	second := churn(b)
	if second.Renames != objs {
		t.Fatalf("second tenant renamed %d times, want %d", second.Renames, objs)
	}
	if second.PoolHits != objs || second.PoolMisses != 0 {
		t.Fatalf("second tenant hits/misses = %d/%d, want %d/0 (reusing the first tenant's storage)",
			second.PoolHits, second.PoolMisses, objs)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	gate.check(a, b)
}

// TestRuntimeBatchKeepsClosedPanic pins Runtime API parity: a batch
// obtained from Runtime.NewBatch still panics on Submit after Close
// (Context batches return the typed error instead).
func TestRuntimeBatchKeepsClosedPanic(t *testing.T) {
	rt := New(Config{Workers: 1})
	b := rt.NewBatch()
	b.Add(fillDef, Out(make([]float32, 1)), Value(0.0))
	rt.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("Batch.Submit after Runtime.Close must panic")
		}
	}()
	b.Submit()
}

// TestPoolAccountsEveryTask is the no-lost-tasks invariant for tenants
// sharing a fixed pool: four contexts submit random rename-heavy
// programs in paced slices while one of them is canceled mid-flight.
// For every tenant executed + poisoned + canceled must equal submitted,
// with zero live renamed bytes once it has drained; the tenants left
// running must still reproduce their sequential results.
func TestPoolAccountsEveryTask(t *testing.T) {
	const (
		tenants = 4
		nBufs   = 6
		nOps    = 400
		slice   = 50
	)
	type op struct {
		kind, a, b int // kind 0 fill, 1 axpy, 2 scale
		c          float64
	}
	progs := make([][]op, tenants)
	for i := range progs {
		rng := rand.New(rand.NewSource(int64(900 + i)))
		for len(progs[i]) < nOps {
			o := op{kind: rng.Intn(3), a: rng.Intn(nBufs), b: rng.Intn(nBufs), c: float64(rng.Intn(5)) + 0.5}
			if o.kind == 1 && o.a == o.b {
				continue
			}
			progs[i] = append(progs[i], o)
		}
	}
	newBufs := func() [][]float32 {
		bufs := make([][]float32, nBufs)
		for i := range bufs {
			bufs[i] = make([]float32, 64)
		}
		return bufs
	}
	submit := func(c *Context, ops []op, bufs [][]float32) error {
		for _, o := range ops {
			var err error
			switch o.kind {
			case 0:
				err = c.Submit(fillDef, Out(bufs[o.a]), Value(o.c))
			case 1:
				err = c.Submit(axpyDef, In(bufs[o.a]), InOut(bufs[o.b]), Value(o.c))
			default:
				err = c.Submit(scaleDef, InOut(bufs[o.a]), Value(o.c))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	sequential := func(ops []op) [][]float32 {
		bufs := newBufs()
		for _, o := range ops {
			x, y := bufs[o.a], bufs[o.b]
			for j := range x {
				switch o.kind {
				case 0:
					x[j] = float32(o.c)
				case 1:
					y[j] += float32(o.c) * x[j]
				default:
					x[j] *= float32(o.c)
				}
			}
		}
		return bufs
	}

	gate := newLeakGate(t)
	pool, err := NewPool(PoolConfig{Workers: 2, MaxContexts: tenants})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*Context, tenants)
	for i := range ctxs {
		ctxs[i] = mustCtx(t, pool)
	}
	// Tenant 0 is canceled mid-flight: after a few slices it queues a
	// task holding every one of its buffers, then one more slice behind
	// it, so the cancel certainly finds queued work to skip.
	release, queued := make(chan struct{}), make(chan struct{})
	hold := NewTaskDef("hold", func(a *Args) { <-release })
	results := make([][][]float32, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i, c := range ctxs {
		wg.Add(1)
		go func(i int, c *Context) {
			defer wg.Done()
			bufs := newBufs()
			results[i] = bufs
			for lo := 0; lo < nOps; lo += slice {
				if i == 0 && lo == 3*slice {
					close(queued)
				}
				if err := submit(c, progs[i][lo:lo+slice], bufs); err != nil {
					// The canceled tenant's submissions start failing;
					// its Barrier still drains the queued work as skips.
					break
				}
				if i == 0 && lo == 1*slice {
					args := make([]Arg, len(bufs))
					for b := range bufs {
						args[b] = InOut(bufs[b])
					}
					if err := c.Submit(hold, args...); err != nil {
						break
					}
				}
				time.Sleep(500 * time.Microsecond)
			}
			errs[i] = c.Barrier()
		}(i, c)
	}
	<-queued
	ctxs[0].Cancel() // one tenant aborts while the others keep submitting
	close(release)
	wg.Wait()

	for i, c := range ctxs {
		st := c.Stats()
		if st.TasksExecuted+st.Poisoned+st.Canceled != st.TasksSubmitted {
			t.Errorf("tenant %d: executed %d + poisoned %d + canceled %d != submitted %d",
				i, st.TasksExecuted, st.Poisoned, st.Canceled, st.TasksSubmitted)
		}
		err := c.Close()
		if i == 0 {
			var ce *CanceledError
			if !errors.As(errs[i], &ce) {
				t.Errorf("canceled tenant: Barrier returned %v, want *CanceledError", errs[i])
			}
			if st.Canceled == 0 {
				t.Errorf("canceled tenant skipped no tasks: %+v", st)
			}
			continue
		}
		if errs[i] != nil || err != nil {
			t.Errorf("tenant %d: Barrier %v, Close %v", i, errs[i], err)
			continue
		}
		want := sequential(progs[i])
		for b := range want {
			for j := range want[b] {
				if results[i][b][j] != want[b][j] {
					t.Fatalf("tenant %d: buf[%d][%d] = %v, want %v", i, b, j, results[i][b][j], want[b][j])
				}
			}
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	gate.check(ctxs...)
}
