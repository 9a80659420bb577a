package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// leakWait bounds how long leakGate.check waits for the goroutines a
// test ran around its pool (tenant submitters, barrier waiters) to exit.
const leakWait = 5 * time.Second

// leakGate is the shutdown leak check shared by the pool tests: the
// goroutine count and the number of serving pool workers recorded
// before the test builds its pool, compared after Pool.Close or
// Pool.Drain returns.
type leakGate struct {
	t             *testing.T
	base, serving int
}

// newLeakGate records the baseline.  Call it before NewPool.
func newLeakGate(t *testing.T) leakGate {
	return leakGate{t: t, base: runtime.NumGoroutine(), serving: servingWorkers()}
}

// check asserts a clean shutdown, to be called once Pool.Close or
// Pool.Drain has returned:
//   - no worker of the test's pool is still serving the mux: Close and
//     Drain return only after every worker has left its loop, so no
//     more may be found than before the pool was built (a worker
//     between its final wg.Done and its exit is allowed; the count
//     below waits for it);
//   - the goroutine count is back at the recorded baseline within
//     leakWait;
//   - every given context holds zero live renamed bytes.
func (g leakGate) check(ctxs ...*Context) {
	g.t.Helper()
	for i, c := range ctxs {
		if live := c.Stats().LiveRenamedBytes; live != 0 {
			g.t.Errorf("context %d: %d renamed bytes live after shutdown", i, live)
		}
	}
	if n := servingWorkers() - g.serving; n > 0 {
		g.t.Errorf("%d pool workers still serving after the pool shut down", n)
	}
	deadline := time.Now().Add(leakWait)
	for runtime.NumGoroutine() > g.base {
		if time.Now().After(deadline) {
			g.t.Fatalf("%d goroutines %v after shutdown, %d before the pool was built:\n%s",
				runtime.NumGoroutine(), leakWait, g.base, allStacks())
		}
		time.Sleep(time.Millisecond)
	}
}

// servingWorkers counts the pool worker goroutines inside the mux.
func servingWorkers() int {
	n := 0
	for _, st := range bytes.Split(allStacks(), []byte("\n\n")) {
		if bytes.Contains(st, []byte("core.(*Pool).workerLoop(")) &&
			bytes.Contains(st, []byte("sched.(*TokenMux).Get(")) {
			n++
		}
	}
	return n
}

// allStacks returns every goroutine's stack trace.
func allStacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
