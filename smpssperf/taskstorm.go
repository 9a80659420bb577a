package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
)

// objLen is the element count of one taskstorm object (64 bytes).
const objLen = 8

// Taskstorm task shapes.  Each task has one or two data parameters and
// touches one element of each, except a write, which must overwrite its
// whole (possibly renamed, uninitialized) object.
const (
	opRead   = iota // In x:             obs = x[e]
	opRead2         // In x, In y:       obs = x[e]*31 + y[e]
	opUpdate        // InOut x:          obs = x[e]; x[e] = mix(x[e], id)
	opWrite         // Out x:            x[k] = mix(id, k) for every k
	opAccum         // In x, InOut y:    obs = y[e]; y[e] += x[e]
	numOps
)

var opNames = [numOps]string{"ts_read", "ts_read2", "ts_update", "ts_write", "ts_accum"}

// opMix is the seeded shape mix in percent: mostly reads.
var opMix = [numOps]int{45, 20, 15, 10, 10}

// stormOp is one generated task.  The runtime passes it to the body as
// an opaque pointer; the body records what it read in obs.
type stormOp struct {
	kind int
	x, y int   // object indices (y only for two-parameter shapes)
	e    int   // element index
	id   int64 // program position, the value writes mix in
	obs  int64
}

func mix(v, id int64) int64 { return v*6364136223846793005 + id*1442695040888963407 + 1 }

// apply runs the op on the given object storage; the runtime's bodies
// and the sequential replay share it.
func (o *stormOp) apply(x, y []int64) {
	switch o.kind {
	case opRead:
		o.obs = x[o.e]
	case opRead2:
		o.obs = x[o.e]*31 + y[o.e]
	case opUpdate:
		o.obs = x[o.e]
		x[o.e] = mix(x[o.e], o.id)
	case opWrite:
		for k := range x {
			x[k] = mix(o.id, int64(k))
		}
	case opAccum:
		o.obs = y[o.e]
		y[o.e] += x[o.e]
	}
}

// taskstorm is a seeded synthetic program of tiny tasks over a few
// hundred 64-byte objects: the runtime does all the work.
type taskstorm struct {
	ops     []stormOp
	init    [][]int64 // generated object contents
	objs    [][]int64 // the runtime's objects
	seqObjs [][]int64 // the sequential replay's objects
	seqOps  []stormOp
	// wantObjs and wantObs are the sequential replay's results.
	wantObjs [][]int64
	wantObs  []int64
	defs     [numOps]*core.TaskDef
	ctx      *core.Context
}

func newTaskstorm(seed int64, ntasks, nobj int) *taskstorm {
	rng := rand.New(rand.NewSource(seed))
	t := &taskstorm{ops: make([]stormOp, ntasks)}
	newObjs := func() [][]int64 {
		o := make([][]int64, nobj)
		for i := range o {
			o[i] = make([]int64, objLen)
		}
		return o
	}
	t.init, t.objs, t.seqObjs, t.wantObjs = newObjs(), newObjs(), newObjs(), newObjs()
	for _, o := range t.init {
		for k := range o {
			o[k] = rng.Int63()
		}
	}
	for i := range t.ops {
		kind, r := 0, rng.Intn(100)
		for r >= opMix[kind] {
			r -= opMix[kind]
			kind++
		}
		x, y := rng.Intn(nobj), rng.Intn(nobj-1)
		if y >= x {
			y++ // two parameters always name two distinct objects
		}
		t.ops[i] = stormOp{kind: kind, x: x, y: y, e: rng.Intn(objLen), id: int64(i)}
	}
	t.seqOps = make([]stormOp, ntasks)
	t.seqSolve()
	for i := range t.wantObjs {
		copy(t.wantObjs[i], t.seqObjs[i])
	}
	t.wantObs = make([]int64, ntasks)
	for i := range t.seqOps {
		t.wantObs[i] = t.seqOps[i].obs
	}
	return t
}

func (t *taskstorm) bind(ctx *core.Context) {
	t.ctx = ctx
	for k := range t.defs {
		t.defs[k] = core.NewTaskDef(opNames[k], func(a *core.Args) {
			switch k {
			case opRead, opUpdate, opWrite:
				a.Opaque(1).(*stormOp).apply(a.I64(0), nil)
			default:
				a.Opaque(2).(*stormOp).apply(a.I64(0), a.I64(1))
			}
		})
	}
}

func (t *taskstorm) reset() {
	for i := range t.objs {
		copy(t.objs[i], t.init[i])
	}
	for i := range t.ops {
		t.ops[i].obs = 0
	}
}

// submit submits op i with its declared directionality.
func (t *taskstorm) submit(i int) error {
	o := &t.ops[i]
	x, y := t.objs[o.x], t.objs[o.y]
	def := t.defs[o.kind]
	switch o.kind {
	case opRead:
		return t.ctx.Submit(def, core.In(x), core.Opaque(o))
	case opRead2:
		return t.ctx.Submit(def, core.In(x), core.In(y), core.Opaque(o))
	case opUpdate:
		return t.ctx.Submit(def, core.InOut(x), core.Opaque(o))
	case opWrite:
		return t.ctx.Submit(def, core.Out(x), core.Opaque(o))
	default:
		return t.ctx.Submit(def, core.In(x), core.InOut(y), core.Opaque(o))
	}
}

func (t *taskstorm) solve(sp *spans) error {
	t0 := time.Now()
	for i := range t.ops {
		if !sp.timeSubmits {
			if err := t.submit(i); err != nil {
				return err
			}
			continue
		}
		s := time.Now()
		err := t.submit(i)
		sp.submit = append(sp.submit, time.Since(s))
		if err != nil {
			return err
		}
	}
	t1 := time.Now()
	err := t.ctx.Barrier()
	sp.gen, sp.barrier = t1.Sub(t0), time.Since(t1)
	return err
}

// check compares every object's final contents and every task's
// observed value against the sequential replay, so a task that ran
// before a hazard it should have waited for shows.
func (t *taskstorm) check() error {
	for i := range t.objs {
		for k, v := range t.objs[i] {
			if v != t.wantObjs[i][k] {
				return fmt.Errorf("taskstorm object %d element %d is %d, sequential replay gives %d", i, k, v, t.wantObjs[i][k])
			}
		}
	}
	for i := range t.ops {
		if t.ops[i].obs != t.wantObs[i] {
			return fmt.Errorf("taskstorm task %d (%s) observed %d, sequential replay gives %d", i, opNames[t.ops[i].kind], t.ops[i].obs, t.wantObs[i])
		}
	}
	return nil
}

func (t *taskstorm) corrupt() { t.objs[0][0]++ }

// seqSolve replays the program in order on private objects.
func (t *taskstorm) seqSolve() time.Duration {
	for i := range t.seqObjs {
		copy(t.seqObjs[i], t.init[i])
	}
	copy(t.seqOps, t.ops)
	t0 := time.Now()
	for i := range t.seqOps {
		o := &t.seqOps[i]
		switch o.kind {
		case opRead, opUpdate, opWrite:
			o.apply(t.seqObjs[o.x], nil)
		default:
			o.apply(t.seqObjs[o.x], t.seqObjs[o.y])
		}
	}
	return time.Since(t0)
}

func (t *taskstorm) stream() [][]access {
	s := make([][]access, len(t.ops))
	for i := range t.ops {
		o := &t.ops[i]
		x, y := t.objs[o.x], t.objs[o.y]
		switch o.kind {
		case opRead:
			s[i] = []access{{data: x, mode: deps.ModeIn}}
		case opRead2:
			s[i] = []access{{data: x, mode: deps.ModeIn}, {data: y, mode: deps.ModeIn}}
		case opUpdate:
			s[i] = []access{{data: x, mode: deps.ModeInOut}}
		case opWrite:
			s[i] = []access{{data: x, mode: deps.ModeOut}}
		default:
			s[i] = []access{{data: x, mode: deps.ModeIn}, {data: y, mode: deps.ModeInOut}}
		}
	}
	return s
}

func (t *taskstorm) kinds() []kernelKind { return nil }

func (t *taskstorm) rate() rate {
	return rate{name: "tasks_per_s", unit: "tasks/s", perSolve: float64(len(t.ops))}
}
