package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
)

// traceAgg accumulates the traced phase: per-task phase times from the
// tracer's create/start/end events and the recorder's edges, plus the
// benchmark's own spans.
type traceAgg struct {
	threads     int       // submitter plus workers
	solves      []float64 // traced solve seconds
	submitNs    []float64
	submitPhase time.Duration
	barrierWait time.Duration
	wall        time.Duration
	depWaitUs   []float64
	queueWaitUs []float64
	busy        time.Duration // every task body
	kindCount   map[string]int
	kindBusy    map[string]time.Duration
}

func newTraceAgg(threads int) *traceAgg {
	return &traceAgg{threads: threads, kindCount: map[string]int{}, kindBusy: map[string]time.Duration{}}
}

// recordedEdges returns the recorder's true-dependency edges, read from
// its DOT export.
func recordedEdges(rec *graph.Recorder) ([][2]int64, error) {
	var buf bytes.Buffer
	if err := rec.WriteDOT(&buf, "g"); err != nil {
		return nil, fmt.Errorf("export recorded graph: %w", err)
	}
	var edges [][2]int64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		from, to, ok := strings.Cut(strings.TrimSpace(sc.Text()), " -> ")
		if !ok {
			continue
		}
		f, err1 := strconv.ParseInt(strings.TrimPrefix(from, "n"), 10, 64)
		t, err2 := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(to, "n"), ";"), 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("unreadable recorded edge %q", sc.Text())
		}
		edges = append(edges, [2]int64{f, t})
	}
	return edges, sc.Err()
}

// maxTaskSamples bounds the per-task samples kept for percentiles;
// solves traced after it is reached still count in every sum.
const maxTaskSamples = 1 << 21

// add folds in one traced solve of wall time d.  Task IDs of a fresh
// context's graph run 1..NumNodes.
func (a *traceAgg) add(tr *trace.Tracer, rec *graph.Recorder, sp *spans, d time.Duration) error {
	n := rec.NumNodes()
	if n == 0 {
		return fmt.Errorf("traced solve recorded no tasks")
	}
	const unset = time.Duration(-1)
	create := make([]time.Duration, n+1)
	start := make([]time.Duration, n+1)
	end := make([]time.Duration, n+1)
	label := make([]string, n+1)
	for i := range create {
		create[i], start[i], end[i] = unset, unset, unset
	}
	var barrier time.Duration
	inBarrier := unset
	for _, ev := range tr.Events() {
		if ev.TaskID < 0 || ev.TaskID > int64(n) {
			continue
		}
		switch ev.Type {
		case trace.EvCreate:
			create[ev.TaskID] = ev.When
		case trace.EvStart:
			start[ev.TaskID], label[ev.TaskID] = ev.When, ev.Label
		case trace.EvEnd:
			end[ev.TaskID] = ev.When
		case trace.EvBarrier:
			inBarrier = ev.When
		case trace.EvBarrierDone:
			if inBarrier != unset {
				barrier += ev.When - inBarrier
				inBarrier = unset
			}
		}
	}
	// A task is ready once it is created and its latest recorded
	// predecessor has ended.  Dependences on producers that had already
	// completed at submission add no edge, and need none: they ended
	// before the task was created.
	ready := make([]time.Duration, n+1)
	copy(ready, create)
	edges, err := recordedEdges(rec)
	if err != nil {
		return err
	}
	for _, e := range edges {
		if e[0] > 0 && e[0] <= int64(n) && e[1] > 0 && e[1] <= int64(n) && end[e[0]] > ready[e[1]] {
			ready[e[1]] = end[e[0]]
		}
	}
	keep := len(a.depWaitUs) < maxTaskSamples
	for id := 1; id <= n; id++ {
		if create[id] == unset || start[id] == unset || end[id] == unset {
			return fmt.Errorf("traced task %d lacks a create, start or end event", id)
		}
		if keep {
			a.depWaitUs = append(a.depWaitUs, float64(ready[id]-create[id])/1e3)
			a.queueWaitUs = append(a.queueWaitUs, float64(max(0, start[id]-ready[id]))/1e3)
		}
		body := end[id] - start[id]
		a.busy += body
		a.kindCount[label[id]]++
		a.kindBusy[label[id]] += body
	}

	phase := sp.gen
	if sp.appBarrier {
		phase -= barrier
	} else {
		barrier = sp.barrier
	}
	if keep {
		for _, s := range sp.submit {
			a.submitNs = append(a.submitNs, float64(s.Nanoseconds()))
		}
	}
	a.submitPhase += phase
	a.barrierWait += barrier
	a.wall += d
	a.solves = append(a.solves, d.Seconds())
	return nil
}

// layerMetrics prints and stores every per-layer metric.
func (b *bench) layerMetrics(m map[string]metric, lr loopResult, agg *traceAgg, rep replayResult, retained float64) {
	out := b.cfg.out
	put := func(name string, v float64, unit string) { report(out, m, name, v, unit, "") }
	solves := float64(len(lr.solves))
	tasks := float64(lr.sum.executed)
	d, sc := lr.sum.deps, lr.sum.sched
	perTask := func(v int64) float64 { return ratio(float64(v), tasks) }
	perSolve := func(v int64) float64 { return ratio(float64(v), solves) }
	perKTask := func(v int64) float64 { return 1000 * perTask(v) }

	fmt.Fprintf(out, "# counters over %d untraced solves; %d traced solves; replays of %d tasks\n",
		len(lr.solves), len(agg.solves), rep.tasks)
	// core
	put("core.tasks_per_solve", ratio(tasks, solves), "count")
	// Only a workload that calls Submit itself times each call; the
	// others read 0 and show their graph generation in
	// core.submit_phase_frac.
	subTail, subPct := tail(agg.submitNs)
	p50Note, tailNote := "", fmt.Sprintf("p%.6g of %d samples", subPct, len(agg.submitNs))
	if len(agg.submitNs) == 0 {
		p50Note = "no per-Submit timing in this workload"
		tailNote = p50Note
	}
	report(out, m, "core.submit_ns.p50", median(agg.submitNs), "ns", p50Note)
	report(out, m, "core.submit_ns.tail", subTail, "ns", tailNote)
	put("core.submit_phase_frac", ratio(float64(agg.submitPhase), float64(agg.wall)), "ratio")
	put("core.barrier_wait_frac", ratio(float64(agg.barrierWait), float64(agg.wall)), "ratio")
	put("core.main_helped_frac", ratio(float64(lr.sum.mainHelped), tasks), "ratio")
	// deps
	put("deps.true_edges_per_task", perTask(d.TrueEdges), "count")
	put("deps.renames_per_task", perTask(d.Renames), "count")
	put("deps.rename_copies_per_task", perTask(d.RenameCopies), "count")
	renames, elided := float64(d.Renames), float64(d.RenamesElided)
	put("deps.rename_elided_frac", ratio(elided, renames+elided), "ratio")
	hits, misses := float64(d.PoolHits), float64(d.PoolMisses)
	put("deps.pool_hit_frac", ratio(hits, hits+misses), "ratio")
	put("deps.region_objects", perSolve(d.RegionObjects), "count/solve")
	put("deps.false_edges", perSolve(d.FalseEdges), "count/solve")
	put("deps.live_renamed_bytes_end", float64(lr.liveEnd), "B")
	put("deps.retained_bytes_per_solve", retained, "B")
	put("deps.analyze_ns", rep.analyzeNs, "ns")
	put("deps.analyze_allocs", rep.analyzeAllocs, "count")
	// graph
	put("graph.insert_ns", rep.insertNs, "ns")
	put("graph.complete_ns", rep.completeNs, "ns")
	put("graph.allocs_per_task", rep.graphAllocs, "count")
	put("graph.critical_path", rep.criticalPath, "count")
	put("graph.avg_parallelism", rep.avgParallelism, "ratio")
	// sched
	put("sched.steals_per_ktask", perKTask(sc.Steals), "count")
	put("sched.steal_batch_mean", ratio(float64(sc.Steals), float64(sc.StealBatches)), "count")
	pops := float64(sc.PopHigh + sc.PopOwn + sc.PopMain + sc.Steals)
	put("sched.pop_own_frac", ratio(float64(sc.PopOwn), pops), "ratio")
	put("sched.pop_main_frac", ratio(float64(sc.PopMain), pops), "ratio")
	put("sched.spills", perSolve(sc.Spills), "count/solve")
	put("sched.chain_hits", perSolve(sc.ChainHits), "count/solve")
	put("sched.affinity_pushes", perSolve(sc.AffinityPushes), "count/solve")
	put("sched.parks_per_ktask", perKTask(lr.parks), "count")
	put("sched.unparks_per_ktask", perKTask(lr.unparks), "count")
	put("sched.push_get_ns", rep.pushGetNs, "ns")
	put("sched.dep_wait_us.p50", median(agg.depWaitUs), "us")
	put("sched.queue_wait_us.p50", median(agg.queueWaitUs), "us")
	qTail, qPct := tail(agg.queueWaitUs)
	report(out, m, "sched.queue_wait_us.tail", qTail, "us", fmt.Sprintf("p%.6g of %d tasks", qPct, len(agg.queueWaitUs)))
	threadTime := float64(agg.wall) * float64(agg.threads)
	put("sched.body_time_frac", ratio(float64(agg.busy), threadTime), "ratio")
	// kernels / apps.  Every run reports every kind, so that each
	// workload prints the same names: a kind it does not run reads 0.
	runs := map[string]bool{}
	for _, k := range b.w.kinds() {
		runs[k.name] = true
	}
	m3 := math.Pow(float64(b.cfg.sizes.block), 3)
	for _, k := range reportedKinds {
		note := ""
		if !runs[k.name] {
			note = "kind not in this workload"
		}
		cnt, busy := float64(agg.kindCount[k.name]), float64(agg.kindBusy[k.name])
		report(out, m, "kernels."+k.name+".us_mean", ratio(busy/1e3, cnt), "us", note)
		report(out, m, "kernels."+k.name+".busy_frac", ratio(busy, threadTime), "ratio", note)
		if k.cubes > 0 {
			// flops per nanosecond are Gflop/s.
			report(out, m, "kernels."+k.name+".gflops", ratio(k.cubes*m3*cnt, busy), "Gflop/s", note)
			report(out, m, "kernels."+k.name+".gflops_alone", rep.gflopsAlone[k.name], "Gflop/s", note)
		}
	}
	put("trace.overhead_frac", ratio(median(agg.solves), median(lr.solves))-1, "ratio")
}
