package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// corrupt damages every solve's output before its check (test hook).
	corrupt bool
	out     io.Writer
}

const (
	// setups is the number of pool set-ups an untraced run times for
	// setup_s; the last one's pool, and on most workloads its context,
	// serve the timed solves.
	setups = 9
	// minSolves is the fewest solves a measuring phase makes, whatever
	// its time budget.
	minSolves = 3
	// seqShare is the share of an untraced run's measuring time spent on
	// sequential baseline solves, interleaved with the runtime's solves
	// so that both see the same machine.
	seqShare = 0.2
	// Shares of a traced run's time: the alternating traced and
	// untraced solves, and the isolated replays.
	tracedShare, replayShare = 0.8, 0.2
)

// bench holds the state of one run.
type bench struct {
	cfg     config
	w       workload
	workers int

	attempted, failed int64
	lastFailed        bool
	firstErr          error
}

func run(cfg config) (result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	baseline := runtime.NumGoroutine()
	stampEnv(cfg.out)
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return result{}, err
	}
	// The submitter plus the dedicated workers make nproc threads; a
	// 1-CPU host still gets one worker (Workers: 0 would mean one per
	// core).
	b := &bench{cfg: cfg, w: w, workers: max(1, nproc-1)}
	fmt.Fprintf(cfg.out, "# run workload=%s seed=%d seconds=%g trace=%t pool=Workers:%d,MaxContexts:1\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, b.workers)
	var metrics map[string]metric
	if cfg.trace {
		metrics, err = b.traced()
	} else {
		metrics, err = b.untraced()
	}
	if err != nil {
		return result{}, err
	}
	if err := waitGoroutines(baseline); err != nil {
		b.failLast(err)
	}
	fmt.Fprintf(cfg.out, "fail_frac %.6g ratio (%d of %d solves failed)\n",
		ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	if b.firstErr != nil {
		fmt.Fprintf(cfg.out, "# first failure: %v\n", b.firstErr)
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// waitGoroutines waits for the goroutine count to return to baseline
// after every pool has closed.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines remain after Pool.Close, %d before the first pool", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verify records the outcome of one solve: an error from the runtime,
// a wrong output or renamed storage left live all fail it.
func (b *bench) verify(ctx *core.Context, err error) {
	b.attempted++
	if err == nil {
		if b.cfg.corrupt {
			b.w.corrupt()
		}
		err = b.w.check()
	}
	if err == nil {
		if live := ctx.Stats().LiveRenamedBytes; live != 0 {
			err = fmt.Errorf("%d renamed bytes live after the barrier", live)
		}
	}
	b.lastFailed = false
	if err != nil {
		b.failLast(err)
		ctx.ClearErr()
	}
}

// failLast marks the last solve failed (once).
func (b *bench) failLast(err error) {
	if b.firstErr == nil {
		b.firstErr = err
	}
	if !b.lastFailed && b.attempted > 0 {
		b.failed++
		b.lastFailed = true
	}
}

// setup builds the pool and a context and runs the warm-up solve on
// it; the returned time is the set-up cost users pay once.  The caller
// closes the context.
func (b *bench) setup() (*core.Pool, *core.Context, time.Duration, error) {
	b.w.reset()
	t0 := time.Now()
	pool, err := core.NewPool(core.PoolConfig{Workers: b.workers, MaxContexts: 1})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("new pool: %w", err)
	}
	ctx, err := pool.NewContext(core.ContextConfig{})
	if err != nil {
		_ = pool.Close() // no context is attached; the NewContext error is the one to report
		return nil, nil, 0, fmt.Errorf("new context: %w", err)
	}
	b.w.bind(ctx)
	err = b.w.solve(&spans{})
	d := time.Since(t0)
	b.verify(ctx, err)
	return pool, ctx, d, nil
}

// closeContext closes ctx; a refusal fails the last solve.
func (b *bench) closeContext(ctx *core.Context) {
	if err := ctx.Close(); err != nil {
		b.failLast(fmt.Errorf("close context: %w", err))
	}
}

// closePool closes pool; a refusal fails the last solve.
func (b *bench) closePool(pool *core.Pool) {
	if err := pool.Close(); err != nil {
		b.failLast(fmt.Errorf("close pool: %w", err))
	}
}

// counters sums the context counters the per-layer metrics use over
// the solves of a phase.
type counters struct {
	executed, mainHelped int64
	deps                 deps.Stats
	sched                sched.Stats
}

// add adds what a context counted between the readings was and s
// (was is zero for a fresh context).
func (c *counters) add(s, was core.Stats) {
	c.executed += s.TasksExecuted - was.TasksExecuted
	c.mainHelped += s.MainHelped - was.MainHelped
	d, o, p := &c.deps, s.Deps, was.Deps
	d.Renames += o.Renames - p.Renames
	d.RenamesElided += o.RenamesElided - p.RenamesElided
	d.RenameCopies += o.RenameCopies - p.RenameCopies
	d.PoolHits += o.PoolHits - p.PoolHits
	d.PoolMisses += o.PoolMisses - p.PoolMisses
	d.TrueEdges += o.TrueEdges - p.TrueEdges
	d.FalseEdges += o.FalseEdges - p.FalseEdges
	d.RegionObjects += o.RegionObjects - p.RegionObjects
	q, r, w := &c.sched, s.Sched, was.Sched
	q.PopHigh += r.PopHigh - w.PopHigh
	q.PopOwn += r.PopOwn - w.PopOwn
	q.PopMain += r.PopMain - w.PopMain
	q.Steals += r.Steals - w.Steals
	q.StealBatches += r.StealBatches - w.StealBatches
	q.Spills += r.Spills - w.Spills
	q.ChainHits += r.ChainHits - w.ChainHits
	q.AffinityPushes += r.AffinityPushes - w.AffinityPushes
}

// loopResult is what one closed-loop measuring phase saw.
type loopResult struct {
	solves, seq    []float64 // seconds per solve
	mallocs, bytes uint64    // allocated during the timed solves
	sum            counters  // context counters of the timed solves
	parks, unparks int64     // pool counters over the timed solves
	liveEnd        int64     // renamed bytes live after the last solve
}

// loop runs solves back to back for budget.  The solves all run on
// long when it is non-nil; otherwise each solve attaches a fresh
// context to the long-lived pool and closes it afterwards (see
// METRICS.md on when and why).  With agg non-nil (and long nil, as the
// pool takes one context at a time) every second solve is traced and
// folded into agg instead, so that
// traced and untraced solves see the same machine; with share > 0
// sequential baseline solves are interleaved for the same reason and
// take that share of the time.  Context set-up, input resets, checks
// and counter reads stay outside the timed region and the allocation
// deltas.
func (b *bench) loop(pool *core.Pool, long *core.Context, budget time.Duration, share float64, agg *traceAgg) (loopResult, error) {
	var lr loopResult
	var m0, m1 runtime.MemStats
	var seqTotal time.Duration
	start := time.Now()
	for time.Since(start) < budget || len(lr.solves) < minSolves || (agg != nil && len(agg.solves) < minSolves) {
		if share > 0 && float64(seqTotal) < share*float64(time.Since(start)) {
			d := b.w.seqSolve()
			seqTotal += d
			lr.seq = append(lr.seq, d.Seconds())
			continue
		}
		traced := agg != nil && len(agg.solves) < len(lr.solves)
		var cfg core.ContextConfig
		var tr *trace.Tracer
		var rec *graph.Recorder
		sp := &spans{timeSubmits: traced}
		if traced {
			tr, rec = trace.New(), &graph.Recorder{}
			cfg.Tracer, cfg.Recorder = tr, rec
		}
		ctx := long
		var was core.Stats
		if ctx == nil {
			var err error
			if ctx, err = pool.NewContext(cfg); err != nil {
				return lr, fmt.Errorf("new context: %w", err)
			}
		} else {
			was = ctx.Stats()
		}
		b.w.bind(ctx)
		b.w.reset()
		p0 := pool.Stats()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := b.w.solve(sp)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		b.verify(ctx, err)
		st := ctx.Stats()
		if ctx != long {
			b.closeContext(ctx)
		}
		if traced {
			if err := agg.add(tr, rec, sp, d); err != nil {
				return lr, err
			}
			continue
		}
		p1 := pool.Stats()
		lr.mallocs += m1.Mallocs - m0.Mallocs
		lr.bytes += m1.TotalAlloc - m0.TotalAlloc
		lr.solves = append(lr.solves, d.Seconds())
		lr.sum.add(st, was)
		lr.parks += p1.Parks - p0.Parks
		lr.unparks += p1.Unparks - p0.Unparks
		lr.liveEnd = st.LiveRenamedBytes
	}
	for share > 0 && len(lr.seq) < minSolves {
		lr.seq = append(lr.seq, b.w.seqSolve().Seconds())
	}
	return lr, nil
}

func budget(total, share float64) time.Duration {
	return time.Duration(total * share * float64(time.Second))
}

// report prints one metric line and stores it.
func report(w io.Writer, m map[string]metric, name string, v float64, unit, note string) {
	m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = " (" + note + ")"
	}
	fmt.Fprintf(w, "%s %.6g %s%s\n", name, v, unit, note)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (map[string]metric, error) {
	var setupS []float64
	var pool *core.Pool
	var ctx *core.Context
	for range setups {
		if pool != nil {
			b.closeContext(ctx)
			b.closePool(pool)
		}
		p, c, d, err := b.setup()
		if err != nil {
			return nil, err
		}
		pool, ctx = p, c
		setupS = append(setupS, d.Seconds())
	}
	// The timed solves run on the set-up's context, as in a program
	// that keeps one context for its life, except on multisort, where a
	// long-lived context retains ~32 MiB per solve (see METRICS.md).
	if _, leaks := b.w.(*multisort); leaks {
		b.closeContext(ctx)
		ctx = nil
	}
	lr, err := b.loop(pool, ctx, budget(b.cfg.seconds, 1), seqShare, nil)
	if ctx != nil {
		b.closeContext(ctx)
	}
	b.closePool(pool)
	if err != nil {
		return nil, err
	}

	out, m := b.cfg.out, map[string]metric{}
	n := len(lr.solves)
	tasks := float64(lr.sum.executed)
	tasksPerSolve := tasks / float64(n)
	p50 := median(lr.solves)
	tl, pct := tail(lr.solves)
	seq := median(lr.seq)
	fmt.Fprintf(out, "# %d timed solves, %d sequential solves, %.0f tasks per solve\n", n, len(lr.seq), tasksPerSolve)
	report(out, m, "solve_s.p50", p50, "s", "")
	// Printed, not gated: on taskstorm the tail follows the host's
	// bursts of noise (see METRICS.md).
	fmt.Fprintf(out, "solve_s.tail %.6g s (p%.4g of %d solves, %d beyond)\n", tl, pct, n, min(tailBeyond, n-1))
	// Printed, not gated: for a fixed problem size the workload's rate
	// is solve_s.p50 restated, which is gated.
	r := b.w.rate()
	fmt.Fprintf(out, "%s %.6g %s\n", r.name, r.perSolve/p50, r.unit)
	report(out, m, "speedup_vs_seq", seq/p50, "x", fmt.Sprintf("sequential p50 %.6g s over %d solves", seq, len(lr.seq)))
	report(out, m, "allocs_per_task", float64(lr.mallocs)/tasks, "count", "")
	report(out, m, "alloc_bytes_per_task", float64(lr.bytes)/tasks, "B", "")
	// Printed, not gated: on taskstorm the resident set is a few MiB of
	// heap whose high-water mark depends on garbage-collection timing.
	fmt.Fprintf(out, "peak_rss_mb %.6g MiB\n", peakRSSMiB())
	report(out, m, "setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS)))
	return m, nil
}

// traced measures the per-layer metrics: counters over untraced solves
// alternating with traced ones, a retention probe, then the isolated
// replays.
func (b *bench) traced() (map[string]metric, error) {
	pool, ctx, _, err := b.setup()
	if err != nil {
		return nil, err
	}
	b.closeContext(ctx)
	agg := newTraceAgg(b.workers + 1)
	lr, err := b.loop(pool, nil, budget(b.cfg.seconds, tracedShare), 0, agg)
	if err != nil {
		return nil, err
	}
	retained, err := b.retention(pool)
	b.closePool(pool)
	if err != nil {
		return nil, err
	}
	rep, err := b.replays(budget(b.cfg.seconds, replayShare))
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	b.layerMetrics(m, lr, agg, rep, retained)
	return m, nil
}

// retentionSolves is the number of solves the retention probe runs on
// one context.
const retentionSolves = 3

// retention runs retentionSolves solves on one long-lived context and
// returns the heap the context keeps alive per solve, measured after a
// full collection: what a program that keeps one context for its whole
// life accumulates.
func (b *bench) retention(pool *core.Pool) (float64, error) {
	ctx, err := pool.NewContext(core.ContextConfig{})
	if err != nil {
		return 0, fmt.Errorf("new context: %w", err)
	}
	defer b.closeContext(ctx)
	b.w.bind(ctx)
	var ms runtime.MemStats
	var first uint64
	for i := 0; i < retentionSolves; i++ {
		b.w.reset()
		b.verify(ctx, b.w.solve(&spans{}))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if i == 0 {
			first = ms.HeapAlloc
		}
	}
	return (float64(ms.HeapAlloc) - float64(first)) / (retentionSolves - 1), nil
}
