// Package trace implements the tracing support of the SMPSs toolset: the
// tracing-enabled runtime "records events related to task creation and
// execution for post-mortem analysis with the Paraver tool" (paper
// §VII.C).
//
// Events are buffered per worker to keep tracing off the critical path
// and can be exported either as a Paraver .prv trace or aggregated into a
// per-task-kind summary.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// EventType classifies a trace event.
type EventType uint8

// Event types recorded by the runtime.
const (
	// EvCreate marks a task being added to the graph (main thread).
	EvCreate EventType = iota
	// EvStart marks a worker beginning a task body.
	EvStart
	// EvEnd marks a worker finishing a task body.
	EvEnd
	// EvRename marks the dependency tracker allocating a renamed
	// instance for the task being analyzed.
	EvRename
	// EvBarrier marks the main thread entering a barrier.
	EvBarrier
	// EvBarrierDone marks the main thread leaving a barrier.
	EvBarrierDone
	// EvChain marks a worker running a successor inline (the locality
	// layer's successor chaining): the task identified by the event ran
	// immediately after its predecessor on the same worker, bypassing
	// the scheduler's queues.  Emitted just before the chained task's
	// EvStart.
	EvChain
	// EvFail marks a task body that failed (panic or Args.Fail),
	// emitted by the executing worker after the body's EvEnd bracket.
	EvFail
	// EvPoisoned marks a task skipped because a predecessor failed
	// under the poisoning failure policy; the body never ran, so no
	// EvStart/EvEnd bracket accompanies it.
	EvPoisoned
	// EvCanceled marks a task drained as a skip by its context's
	// cancellation (Cancel, Deadline, or pool Drain); like EvPoisoned
	// it has no EvStart/EvEnd bracket.
	EvCanceled
)

// String returns a short name for the event type.
func (e EventType) String() string {
	switch e {
	case EvCreate:
		return "create"
	case EvStart:
		return "start"
	case EvEnd:
		return "end"
	case EvRename:
		return "rename"
	case EvBarrier:
		return "barrier"
	case EvBarrierDone:
		return "barrier_done"
	case EvChain:
		return "chain"
	case EvFail:
		return "fail"
	case EvPoisoned:
		return "poisoned"
	case EvCanceled:
		return "canceled"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Event is one timestamped runtime occurrence.
type Event struct {
	// When is the time since the tracer was created.
	When time.Duration
	// Ctx identifies the runtime context the event belongs to (0 when
	// the tracer serves a single private runtime).  On a shared worker
	// pool several contexts may record into one tracer; the context
	// dimension keeps their timelines separable in Paraver.
	Ctx int
	// Worker identifies the thread (0 = main, 1.. = workers).
	Worker int
	// Type is the event class.
	Type EventType
	// Kind is the task definition index (-1 when not applicable).
	Kind int
	// Label is the task definition name ("" when not applicable).
	Label string
	// TaskID is the task invocation number (0 when not applicable).
	TaskID int64
}

// stripes is the number of independent event buffers.  Emits hash by
// worker identity, so concurrent threads append under different locks;
// a power of two keeps the index a mask.
const stripes = 64

// stripe is one event buffer with its own lock, padded to a full
// 64-byte cache line (8-byte mutex + 24-byte slice header + 32 pad) so
// neighbouring stripes' mutexes do not share a line.
type stripe struct {
	mu  sync.Mutex
	evs []Event
	_   [32]byte
}

// Tracer collects events from all runtime threads.  A nil *Tracer is
// valid and records nothing, so the runtime can call it unconditionally.
//
// Events are buffered per worker stripe: concurrent emitters from
// different workers take different locks, so one shared tracer across a
// pool's workers and contexts is not a serialization point.  Merging
// and time-sorting happen at read time (Events, WritePRV, Summarize).
type Tracer struct {
	start time.Time

	bufs [stripes]stripe
}

// New creates an empty tracer; the zero time reference is "now".
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Emit records one event for context 0.  Safe for concurrent use; a nil
// tracer drops the event.
func (t *Tracer) Emit(worker int, typ EventType, kind int, label string, taskID int64) {
	t.EmitCtx(0, worker, typ, kind, label, taskID)
}

// EmitCtx records one event tagged with its runtime context.  Safe for
// concurrent use; a nil tracer drops the event.
func (t *Tracer) EmitCtx(ctx, worker int, typ EventType, kind int, label string, taskID int64) {
	if t == nil {
		return
	}
	ev := Event{
		When:   time.Since(t.start),
		Ctx:    ctx,
		Worker: worker,
		Type:   typ,
		Kind:   kind,
		Label:  label,
		TaskID: taskID,
	}
	s := &t.bufs[worker&(stripes-1)]
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

// Events returns all recorded events sorted by time.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var all []Event
	for i := range t.bufs {
		s := &t.bufs[i]
		s.mu.Lock()
		all = append(all, s.evs...)
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].When < all[j].When })
	return all
}

// Paraver event-type codes used in the .prv output, loosely following the
// CellSs/SMPSs instrumentation convention of one code per semantic.
const (
	prvTaskKind = 90000001 // value = task kind + 1 at start, 0 at end
	prvRename   = 90000002
	prvBarrier  = 90000003
	prvCreate   = 90000004
	prvChain    = 90000005 // value = task kind + 1 of the chained task
	prvFail     = 90000006 // value = task kind + 1 of the failed task
	prvPoisoned = 90000007 // value = task kind + 1 of the skipped task
	prvCanceled = 90000008 // value = task kind + 1 of the skipped task
)

// WritePRV exports the trace in Paraver .prv format: a header line
// followed by event records "2:cpu:appl:task:thread:time:type:value"
// with times in nanoseconds.
func (t *Tracer) WritePRV(w io.Writer) error {
	events := t.Events()
	var end time.Duration
	if len(events) > 0 {
		end = events[len(events)-1].When
	}
	maxWorker, maxCtx := 0, 0
	for _, ev := range events {
		if ev.Worker > maxWorker {
			maxWorker = ev.Worker
		}
		if ev.Ctx > maxCtx {
			maxCtx = ev.Ctx
		}
	}
	// Header: #Paraver (date):totalTime_ns:nNodes(nCPUs):nAppl:appl(nTasks(nThreads:node),...)
	// One Paraver "task" per runtime context, each with every worker
	// thread, matching the task field the event records carry — so a
	// tracer shared by several contexts still writes a self-consistent
	// trace.
	if _, err := fmt.Fprintf(w, "#Paraver (13/06/2026 at 00:00):%d_ns:1(%d):1:%d(",
		end.Nanoseconds(), maxWorker+1, maxCtx+1); err != nil {
		return err
	}
	for c := 0; c <= maxCtx; c++ {
		sep := ","
		if c == maxCtx {
			sep = ")\n"
		}
		if _, err := fmt.Fprintf(w, "%d:1%s", maxWorker+1, sep); err != nil {
			return err
		}
	}
	for _, ev := range events {
		var typ, val int64
		switch ev.Type {
		case EvStart:
			typ, val = prvTaskKind, int64(ev.Kind)+1
		case EvEnd:
			typ, val = prvTaskKind, 0
		case EvRename:
			typ, val = prvRename, 1
		case EvBarrier:
			typ, val = prvBarrier, 1
		case EvBarrierDone:
			typ, val = prvBarrier, 0
		case EvCreate:
			typ, val = prvCreate, int64(ev.Kind)+1
		case EvChain:
			typ, val = prvChain, int64(ev.Kind)+1
		case EvFail:
			typ, val = prvFail, int64(ev.Kind)+1
		case EvPoisoned:
			typ, val = prvPoisoned, int64(ev.Kind)+1
		case EvCanceled:
			typ, val = prvCanceled, int64(ev.Kind)+1
		}
		// cpu, appl, task are 1-based; the task field carries the runtime
		// context (ctx+1) so a shared tracer's tenants stay separable in
		// Paraver; thread is worker+1.
		if _, err := fmt.Fprintf(w, "2:%d:1:%d:%d:%d:%d:%d\n",
			ev.Worker+1, ev.Ctx+1, ev.Worker+1, ev.When.Nanoseconds(), typ, val); err != nil {
			return err
		}
	}
	return nil
}

// WritePCF exports the Paraver configuration file matching WritePRV: it
// names the event types and maps each task-kind value to its label so
// Paraver renders readable timelines.
func (t *Tracer) WritePCF(w io.Writer) error {
	// Collect kind → label from start events, in first-seen order.
	labels := map[int]string{}
	var order []int
	for _, ev := range t.Events() {
		if ev.Type != EvStart && ev.Type != EvCreate {
			continue
		}
		if _, ok := labels[ev.Kind]; !ok {
			labels[ev.Kind] = ev.Label
			order = append(order, ev.Kind)
		}
	}
	var b strings.Builder
	b.WriteString("DEFAULT_OPTIONS\n\nLEVEL               THREAD\nUNITS               NANOSEC\n\n")
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Task kind\nVALUES\n0      end\n", prvTaskKind)
	for _, k := range order {
		fmt.Fprintf(&b, "%d      %s\n", k+1, labels[k])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Renaming\nVALUES\n0      none\n1      renamed\n\n", prvRename)
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Barrier\nVALUES\n0      outside\n1      inside\n\n", prvBarrier)
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Task creation\n\n", prvCreate)
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Successor chain\n\n", prvChain)
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Task failure\n\n", prvFail)
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Poisoned skip\n\n", prvPoisoned)
	fmt.Fprintf(&b, "EVENT_TYPE\n0    %d    Canceled skip\n\n", prvCanceled)
	_, err := io.WriteString(w, b.String())
	return err
}

// KindSummary aggregates executions of one task definition.
type KindSummary struct {
	// Label is the task definition name.
	Label string
	// Count is the number of completed executions.
	Count int
	// Total is the summed body execution time.
	Total time.Duration
	// Mean is Total / Count.
	Mean time.Duration
	// Truncated counts executions whose start was recorded but whose
	// end never was — a context that closed (or a trace snapshotted)
	// mid-execution.  They are excluded from Count/Total/Mean.
	Truncated int
}

// WorkerSummary aggregates one thread's activity.
type WorkerSummary struct {
	// Worker is the thread identity (0 = main).
	Worker int
	// Tasks is the number of task bodies the thread executed.
	Tasks int
	// Busy is the summed task body time on this thread.
	Busy time.Duration
}

// Summary is the aggregate view produced from a trace.
type Summary struct {
	// Span is the time from first to last event.
	Span time.Duration
	// Kinds summarizes per task definition, sorted by label.
	Kinds []KindSummary
	// Workers summarizes per thread, sorted by worker id.
	Workers []WorkerSummary
	// Created is the number of task-creation events (tasks added to the
	// graph by the main thread).  It can exceed the summed Kinds counts
	// when the trace ends before every created task ran.
	Created int
	// Renames is the number of rename events.
	Renames int
	// Barriers is the number of barrier entries the main threads
	// recorded; BarrierWait is the summed time between each barrier
	// entry and its matching exit, paired per (context, worker).  An
	// entry with no recorded exit (trace snapshotted inside a barrier)
	// counts in Barriers but adds nothing to BarrierWait.
	Barriers    int
	BarrierWait time.Duration
	// Chained is the number of successor-chain events (tasks run inline
	// by the completing worker, bypassing the scheduler's queues).
	Chained int
	// Failures is the number of task-failure events (bodies that
	// panicked or called Args.Fail).
	Failures int
	// Poisoned is the number of tasks skipped as dependents of a
	// failure under the poisoning policy.
	Poisoned int
	// Canceled is the number of tasks drained as skips by their
	// context's cancellation.
	Canceled int
	// Truncated is the number of task starts with no matching end — a
	// context that closed mid-trace, or a trace snapshotted while tasks
	// were executing.  Instead of silently unbalancing later pairings
	// (or vanishing), each such start is flushed into its kind's
	// Truncated count.
	Truncated int
}

// Summarize pairs start/end events per (context, worker) and aggregates
// busy time per task kind and per worker.  Start events that never see
// their end — a context closed mid-trace, or the trace snapshotted
// while tasks run — are flushed as explicit truncations rather than
// dropped or mis-paired with a later task's end.
func (t *Tracer) Summarize() Summary {
	events := t.Events()
	var s Summary
	if len(events) == 0 {
		return s
	}
	s.Span = events[len(events)-1].When - events[0].When

	type key struct{ ctx, worker int }
	open := make(map[key]Event)
	kinds := make(map[string]*KindSummary)
	kindFor := func(label string) *KindSummary {
		ks := kinds[label]
		if ks == nil {
			ks = &KindSummary{Label: label}
			kinds[label] = ks
		}
		return ks
	}
	truncate := func(st Event) {
		kindFor(st.Label).Truncated++
		s.Truncated++
	}
	workers := make(map[int]*WorkerSummary)
	inBarrier := make(map[key]Event)
	for _, ev := range events {
		switch ev.Type {
		case EvCreate:
			s.Created++
		case EvBarrier:
			s.Barriers++
			inBarrier[key{ev.Ctx, ev.Worker}] = ev
		case EvBarrierDone:
			if ent, ok := inBarrier[key{ev.Ctx, ev.Worker}]; ok {
				s.BarrierWait += ev.When - ent.When
				delete(inBarrier, key{ev.Ctx, ev.Worker})
			}
		case EvStart:
			k := key{ev.Ctx, ev.Worker}
			if prev, ok := open[k]; ok {
				// Two starts with no end between them: the first one's
				// end was lost.  Flush it as truncated so it cannot be
				// mis-paired with this task's end.
				truncate(prev)
			}
			open[k] = ev
		case EvEnd:
			st, ok := open[key{ev.Ctx, ev.Worker}]
			if !ok {
				continue
			}
			delete(open, key{ev.Ctx, ev.Worker})
			d := ev.When - st.When
			ks := kindFor(st.Label)
			ks.Count++
			ks.Total += d
			ws := workers[ev.Worker]
			if ws == nil {
				ws = &WorkerSummary{Worker: ev.Worker}
				workers[ev.Worker] = ws
			}
			ws.Tasks++
			ws.Busy += d
		case EvRename:
			s.Renames++
		case EvChain:
			s.Chained++
		case EvFail:
			s.Failures++
		case EvPoisoned:
			s.Poisoned++
		case EvCanceled:
			s.Canceled++
		}
	}
	// Whatever is still open at the end of the trace never terminated.
	for _, st := range open {
		truncate(st)
	}
	for _, ks := range kinds {
		if ks.Count > 0 {
			ks.Mean = ks.Total / time.Duration(ks.Count)
		}
		s.Kinds = append(s.Kinds, *ks)
	}
	sort.Slice(s.Kinds, func(i, j int) bool { return s.Kinds[i].Label < s.Kinds[j].Label })
	for _, ws := range workers {
		s.Workers = append(s.Workers, *ws)
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// Format renders the summary as a fixed-width text report.
func (s Summary) Format(w io.Writer) {
	fmt.Fprintf(w, "trace span: %v, created: %d, renames: %d", s.Span, s.Created, s.Renames)
	if s.Barriers > 0 {
		fmt.Fprintf(w, ", barriers: %d (%v waiting)", s.Barriers, s.BarrierWait)
	}
	if s.Chained > 0 {
		fmt.Fprintf(w, ", chained: %d", s.Chained)
	}
	if s.Failures > 0 {
		fmt.Fprintf(w, ", failures: %d", s.Failures)
	}
	if s.Poisoned > 0 {
		fmt.Fprintf(w, ", poisoned: %d", s.Poisoned)
	}
	if s.Canceled > 0 {
		fmt.Fprintf(w, ", canceled: %d", s.Canceled)
	}
	if s.Truncated > 0 {
		fmt.Fprintf(w, ", truncated: %d", s.Truncated)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %8s %14s %14s\n", "task", "count", "total", "mean")
	for _, k := range s.Kinds {
		fmt.Fprintf(w, "%-16s %8d %14v %14v", k.Label, k.Count, k.Total, k.Mean)
		if k.Truncated > 0 {
			fmt.Fprintf(w, " (+%d truncated)", k.Truncated)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-16s %8s %14s\n", "worker", "tasks", "busy")
	for _, ws := range s.Workers {
		fmt.Fprintf(w, "%-16d %8d %14v\n", ws.Worker, ws.Tasks, ws.Busy)
	}
}
