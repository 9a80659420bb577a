package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/trace"
)

// TestScalePolicyHysteresis replays the deterministic grow/shrink policy
// sample by sample: a grow fires after exactly growAfter consecutive
// loaded samples, a shrink after exactly shrinkAfter consecutive empty
// samples, and any sample outside the streak resets it.
func TestScalePolicyHysteresis(t *testing.T) {
	pol := scalePolicy{growAfter: 2, shrinkAfter: 4}

	// Grow: the first loaded sample holds, the second fires.
	if d := pol.observe(10, 2); d != 0 {
		t.Fatalf("one loaded sample: decided %+d, want 0", d)
	}
	if d := pol.observe(10, 2); d != +1 {
		t.Fatalf("second consecutive loaded sample: decided %+d, want +1", d)
	}
	// The firing resets the streak: growing again takes two more.
	if d := pol.observe(10, 3); d != 0 {
		t.Fatalf("loaded sample after a grow: decided %+d, want 0", d)
	}

	// An in-capacity sample (0 < queued <= active) breaks the streak.
	if d := pol.observe(2, 4); d != 0 {
		t.Fatalf("in-capacity sample: decided %+d, want 0", d)
	}
	if d := pol.observe(10, 4); d != 0 {
		t.Fatalf("loaded streak must restart after an in-capacity sample, got %+d", d)
	}

	// Shrink: three empty samples hold, the fourth fires.
	for i := 0; i < 3; i++ {
		if d := pol.observe(0, 4); d != 0 {
			t.Fatalf("empty sample %d: decided %+d, want 0", i+1, d)
		}
	}
	if d := pol.observe(0, 4); d != -1 {
		t.Fatalf("fourth consecutive empty sample: decided %+d, want -1", d)
	}

	// A single queued task anywhere in the window resets the idle streak.
	for i := 0; i < 3; i++ {
		pol.observe(0, 4)
	}
	if d := pol.observe(1, 4); d != 0 {
		t.Fatalf("in-capacity sample inside idle window: decided %+d, want 0", d)
	}
	for i := 0; i < 3; i++ {
		if d := pol.observe(0, 4); d != 0 {
			t.Fatalf("idle streak must restart after a busy sample, got %+d at %d", d, i+1)
		}
	}
	if d := pol.observe(0, 4); d != -1 {
		t.Fatalf("restarted idle streak must still shrink, got %+d", d)
	}

	// A loaded sample also clears the idle streak (and vice versa —
	// checked above by the grow-after-in-capacity case).
	for i := 0; i < 3; i++ {
		pol.observe(0, 4)
	}
	pol.observe(9, 4)
	if d := pol.observe(0, 4); d != 0 {
		t.Fatalf("idle streak survived a loaded sample: %+d", d)
	}
}

// TestElasticConfigValidation pins the sizing rules for the elastic
// fields: negative bounds and contradictory combinations are typed
// errors, zero values pick sensible defaults, and the plain Workers
// field stays the identity-space alias.
func TestElasticConfigValidation(t *testing.T) {
	var cfgErr *ConfigError
	if _, err := NewPool(PoolConfig{MinWorkers: -1}); !errors.As(err, &cfgErr) || cfgErr.Field != "MinWorkers" {
		t.Fatalf("MinWorkers=-1: %v, want *ConfigError{MinWorkers}", err)
	}
	if _, err := NewPool(PoolConfig{MaxWorkers: -3}); !errors.As(err, &cfgErr) || cfgErr.Field != "MaxWorkers" {
		t.Fatalf("MaxWorkers=-3: %v, want *ConfigError{MaxWorkers}", err)
	}
	if _, err := NewPool(PoolConfig{MinWorkers: 5, MaxWorkers: 2}); !errors.As(err, &cfgErr) || cfgErr.Field != "MinWorkers" {
		t.Fatalf("Min>Max: %v, want *ConfigError{MinWorkers}", err)
	}
	if _, err := NewPool(PoolConfig{Workers: 3, MaxWorkers: 4}); !errors.As(err, &cfgErr) || cfgErr.Field != "Workers" {
		t.Fatalf("Workers conflicting with MaxWorkers: %v, want *ConfigError{Workers}", err)
	}

	// MaxWorkers alone: floor defaults to 1, Workers aliases the ceiling.
	p, err := NewPool(PoolConfig{MaxWorkers: 3, MaxContexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want MaxWorkers = 3", p.Workers())
	}
	if got := p.ActiveWorkers(); got != 1 {
		t.Fatalf("initial team = %d, want MinWorkers default 1", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// MinWorkers == MaxWorkers is a fixed-size pool: no elastic
	// machinery, stats pinned at the configured size.
	p, err = NewPool(PoolConfig{MinWorkers: 2, MaxWorkers: 2, MaxContexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.elastic {
		t.Fatal("MinWorkers == MaxWorkers built the elastic machinery")
	}
	st := p.Stats()
	if st.ActiveWorkers != 2 || st.ActiveWorkersHigh != 2 || st.ActiveWorkersLow != 2 {
		t.Fatalf("fixed pool stats = %+v, want active/high/low all 2", st)
	}
	if st.Grows != 0 || st.Shrinks != 0 {
		t.Fatalf("fixed pool counted %d grows / %d shrinks", st.Grows, st.Shrinks)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond every 200µs until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestElasticGrowAndShrink drives one full elastic cycle on a real
// pool: a backlog of gated tasks forces the team from the MinWorkers
// floor to the MaxWorkers ceiling, the drain returns it to the floor,
// and the counters, watermarks and trace events all agree.  The pool
// must then still execute work correctly on the shrunken team.
func TestElasticGrowAndShrink(t *testing.T) {
	const (
		minW = 1
		maxW = 4
	)
	tr := trace.New()
	pool, err := NewPool(PoolConfig{
		MinWorkers:    minW,
		MaxWorkers:    maxW,
		MaxContexts:   1,
		ScaleInterval: 100 * time.Microsecond,
		Tracer:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := mustCtx(t, pool)

	// Phase 1: grow.  Independent gated tasks pile up faster than the
	// floor team can serve them, so the controller must recruit every
	// retired slot.
	gate := make(chan struct{})
	var running atomic.Int32
	block := NewTaskDef("elastic_block", func(a *Args) {
		running.Add(1)
		<-gate
	})
	bufs := make([][]float32, 16)
	for i := range bufs {
		bufs[i] = make([]float32, 4)
		if err := c.Submit(block, InOut(bufs[i])); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "grow to the MaxWorkers ceiling", func() bool {
		return pool.ActiveWorkers() == maxW
	})
	// All four dedicated workers must actually be serving, not just
	// marked active.
	waitFor(t, 10*time.Second, "all recruited workers to pick up tasks", func() bool {
		return running.Load() >= maxW
	})
	close(gate)
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: shrink.  The queues are empty; after the hysteresis
	// window the controller must park the team back down to the floor.
	waitFor(t, 10*time.Second, "shrink to the MinWorkers floor", func() bool {
		return pool.ActiveWorkers() == minW
	})

	st := pool.Stats()
	if st.Grows < maxW-minW {
		t.Errorf("Grows = %d, want >= %d", st.Grows, maxW-minW)
	}
	if st.Shrinks < maxW-minW {
		t.Errorf("Shrinks = %d, want >= %d", st.Shrinks, maxW-minW)
	}
	if st.ActiveWorkersHigh != maxW {
		t.Errorf("ActiveWorkersHigh = %d, want %d", st.ActiveWorkersHigh, maxW)
	}
	if st.ActiveWorkersLow != minW {
		t.Errorf("ActiveWorkersLow = %d, want %d", st.ActiveWorkersLow, minW)
	}

	// Phase 3: the shrunken pool still computes.  A fill + scale chain
	// exercises submit, steal and rename paths after workers retired and
	// released their scratch.
	buf := make([]float32, 8)
	c.Submit(fillDef, Out(buf), Value(2.0))
	for i := 0; i < 10; i++ {
		c.Submit(scaleDef, InOut(buf), Value(2.0))
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if want := float32(2048); buf[0] != want {
		t.Fatalf("post-shrink chain: buf[0] = %g, want %g", buf[0], want)
	}
	if live := c.Stats().LiveRenamedBytes; live != 0 {
		t.Fatalf("%d renamed bytes live after drain", live)
	}
	closeAll(t, pool, c)

	// The tracer saw both directions, each event carrying the new team
	// size in Kind and the affected slot as TaskID.
	var grows, shrinks int
	for _, ev := range tr.Events() {
		switch ev.Type {
		case trace.EvGrow:
			grows++
			if ev.Kind < minW || ev.Kind > maxW {
				t.Errorf("EvGrow team size %d out of [%d,%d]", ev.Kind, minW, maxW)
			}
		case trace.EvShrink:
			shrinks++
			if ev.Kind < minW || ev.Kind > maxW {
				t.Errorf("EvShrink team size %d out of [%d,%d]", ev.Kind, minW, maxW)
			}
		}
	}
	if int64(grows) != st.Grows || int64(shrinks) != st.Shrinks {
		t.Errorf("trace saw %d grows / %d shrinks, stats say %d / %d",
			grows, shrinks, st.Grows, st.Shrinks)
	}
}

// TestElasticTopologyPool runs an elastic pool with an explicit
// two-group synthetic topology end to end: correctness of a dependent
// workload, steal counters flowing through Stats, and a clean close.
func TestElasticTopologyPool(t *testing.T) {
	pool, err := NewPool(PoolConfig{
		MinWorkers:    2,
		MaxWorkers:    4,
		MaxContexts:   2,
		ScaleInterval: 100 * time.Microsecond,
		Topology:      topo.Split(6, 2), // 2 submitters + 4 dedicated slots
	})
	if err != nil {
		t.Fatal(err)
	}
	c := mustCtx(t, pool)
	const chains = 8
	bufs := make([][]float32, chains)
	for i := range bufs {
		bufs[i] = make([]float32, 32)
		c.Submit(fillDef, Out(bufs[i]), Value(1.0))
		for d := 0; d < 50; d++ {
			c.Submit(scaleDef, InOut(bufs[i]), Value(1.01))
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	want := float32(1.0)
	for d := 0; d < 50; d++ {
		want *= 1.01
	}
	for i := range bufs {
		if bufs[i][0] != want {
			t.Fatalf("chain %d = %g, want %g", i, bufs[i][0], want)
		}
	}
	st := c.Stats()
	if st.Sched.LocalSteals < 0 || st.Sched.RemoteSteals < 0 {
		t.Fatalf("steal counters went negative: %+v", st.Sched)
	}
	closeAll(t, pool, c)
}

// TestElasticDrainMidShrink is the regression test for Drain racing the
// retirement machinery: with the controller armed aggressively and
// straggling tenants holding slow serial chains, Pool.Drain must cancel
// the stragglers and complete — workers parked mid-shrink (or parking
// concurrently with the teardown) must all unblock and exit.
func TestElasticDrainMidShrink(t *testing.T) {
	const tenants = 2
	pool, err := NewPool(PoolConfig{
		MinWorkers:    1,
		MaxWorkers:    4,
		MaxContexts:   tenants,
		ScaleInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each chain runs gateAt links, then its next link blocks until the
	// drain begins: the controller shrinks the idle workers while the
	// chain is in flight, and at least chainLen-gateAt links of 200µs
	// (~98 ms) remain when Drain starts, far past its 5 ms grace, so the
	// drain always has stragglers to cancel however loaded the host is.
	const chainLen, gateAt = 500, 10
	draining := make(chan struct{})
	var queued, gated sync.WaitGroup
	queued.Add(tenants)
	gated.Add(tenants)
	slow := NewTaskDef("elastic_slow", func(a *Args) {
		if a.Int(1) == gateAt {
			gated.Done()
			<-draining
		}
		time.Sleep(200 * time.Microsecond)
		a.F32(0)[0]++
	})
	ctxs := make([]*Context, tenants)
	for i := range ctxs {
		ctxs[i] = mustCtx(t, pool)
	}
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i, c := range ctxs {
		wg.Add(1)
		go func(i int, c *Context) {
			defer wg.Done()
			// The whole serial chain is queued before the drain starts,
			// so the only blocked call is the Barrier it must cancel.
			x := make([]float32, 4)
			for k := 0; k < chainLen; k++ {
				if err := c.Submit(slow, InOut(x), Value(k)); err != nil {
					errs[i] = err
					queued.Done()
					return
				}
			}
			queued.Done()
			errs[i] = c.Barrier()
		}(i, c)
	}
	queued.Wait()
	for i, err := range errs {
		if err != nil {
			close(draining)
			t.Fatalf("tenant %d: Submit before the drain: %v", i, err)
		}
	}
	gated.Wait()
	close(draining)
	done := make(chan error, 1)
	go func() { done <- pool.Drain(5 * time.Millisecond) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain wedged on an elastic pool mid-shrink")
	}
	wg.Wait()
	for i, err := range errs {
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Errorf("tenant %d: Barrier returned %v, want *CanceledError", i, err)
			continue
		}
		if ce.Reason != "drain" {
			t.Errorf("tenant %d: canceled for %q, want \"drain\"", i, ce.Reason)
		}
		if live := ctxs[i].Stats().LiveRenamedBytes; live != 0 {
			t.Errorf("tenant %d: %d renamed bytes live after forced drain", i, live)
		}
	}
}

// TestElasticCancelMidShrink covers the tenant-initiated half of the
// same race: Context.Cancel while the controller is actively parking
// and unparking workers must drain the tenant's graph (every submitted
// task executed or canceled) without wedging the barrier.
func TestElasticCancelMidShrink(t *testing.T) {
	pool, err := NewPool(PoolConfig{
		MinWorkers:    1,
		MaxWorkers:    3,
		MaxContexts:   1,
		ScaleInterval: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := mustCtx(t, pool)
	slow := NewTaskDef("elastic_slow_cancel", func(a *Args) {
		time.Sleep(100 * time.Microsecond)
		a.F32(0)[0]++
	})
	x := make([]float32, 4)
	const n = 400
	for k := 0; k < n; k++ {
		if err := c.Submit(slow, InOut(x)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond) // let shrinks/grows churn
	c.Cancel()
	err = c.Barrier()
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Reason != "cancel" {
		t.Fatalf("Barrier after Cancel: %v, want *CanceledError{cancel}", err)
	}
	st := c.Stats()
	if st.TasksExecuted+st.Poisoned+st.Canceled != st.TasksSubmitted {
		t.Fatalf("executed %d + poisoned %d + canceled %d != submitted %d",
			st.TasksExecuted, st.Poisoned, st.Canceled, st.TasksSubmitted)
	}
	if st.LiveRenamedBytes != 0 {
		t.Fatalf("%d renamed bytes live after canceled drain", st.LiveRenamedBytes)
	}
	if err := c.Close(); err != nil {
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("Close after Cancel: %v", err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticCloseWhileRetired pins the teardown path: closing a pool
// whose team sits at the floor (most slots parked on their retire
// channels, unreachable by the mux's Kick) must not wedge.
func TestElasticCloseWhileRetired(t *testing.T) {
	pool, err := NewPool(PoolConfig{
		MinWorkers:    1,
		MaxWorkers:    8,
		MaxContexts:   1,
		ScaleInterval: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Never submit anything: seven slots are parked from birth.
	done := make(chan error, 1)
	go func() { done <- pool.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close wedged with workers parked on retire channels")
	}
}
