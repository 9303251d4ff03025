// Package par provides the bounded parallel-execution primitive shared by
// the inference engine and the experiment harness: an errgroup-style Group
// that runs tasks on at most N goroutines, records the first failure, and
// skips tasks submitted after one (cooperative cancellation).
//
// The package deliberately contains no randomness and imposes no ordering
// of its own: callers that need deterministic output pre-compute every
// input (RNG streams included) before submitting tasks and write results
// into pre-assigned slots, so the result is bit-identical at any worker
// count — only the wall-clock changes. That contract is what the
// reproducibility harness in internal/core pins down.
package par

import (
	"context"
	"runtime"
	"sync"

	"because/internal/obs"
)

// Workers resolves a worker-count setting: values below 1 select
// runtime.GOMAXPROCS(0), anything else passes through.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Group runs tasks on a bounded pool of goroutines. The zero value is not
// usable; construct with NewGroupContext. A Group may be used for one wave
// of tasks: submit with Go, then Wait. It must not be reused after Wait.
type Group struct {
	ctx  context.Context
	sem  chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error //lint:guard mu
	fail bool  //lint:guard mu

	busy  *obs.Gauge
	tasks *obs.Counter
}

// NewGroupContext returns a group running at most workers tasks
// concurrently (workers < 1 selects GOMAXPROCS). The observer, when
// non-nil, receives a busy-worker gauge and a completed-task counter
// labeled pool=name. Once ctx is cancelled, tasks submitted (or still
// queued behind the semaphore) are skipped before they start, and the
// group records ctx.Err() so Wait reports the cancellation. Tasks already
// running are NOT interrupted — cooperative cancellation inside the task
// (e.g. a sampler checking ctx per sweep) is the caller's job. Skipping
// never writes a result slot, and the caller only reads slots after an
// error-free Wait, so results stay deterministic.
func NewGroupContext(ctx context.Context, workers int, o *obs.Observer, name string) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Group{ctx: ctx, sem: make(chan struct{}, Workers(workers))}
	if o != nil {
		g.busy = o.Gauge(obs.MetricPoolBusy, "pool", name)
		g.tasks = o.Counter(obs.MetricPoolTasks, "pool", name)
	}
	return g
}

// Go submits one task. It blocks until a worker slot frees up (bounding
// both concurrency and the submission loop), then runs f on its own
// goroutine. After any task has failed — or the group's context has been
// cancelled — subsequent tasks are skipped: their slots are never written,
// which is fine because the caller only reads results after an error-free
// Wait.
func (g *Group) Go(f func() error) {
	g.sem <- struct{}{}
	if g.failed() {
		<-g.sem
		return
	}
	if err := g.ctx.Err(); err != nil {
		// Record the cancellation as the group error (first failure wins),
		// so a Wait over skipped tasks still reports why nothing ran.
		g.record(err)
		<-g.sem
		return
	}
	g.wg.Add(1)
	go func() {
		defer func() {
			g.wg.Done()
			<-g.sem
		}()
		g.busy.Add(1)
		err := f()
		g.busy.Add(-1)
		g.tasks.Inc()
		if err != nil {
			g.record(err)
		}
	}()
}

// GoCtx is Go for tasks that want the group's context — the one
// NewGroupContext was bound to — so a task can respect cancellation and
// read request-scoped values (the current trace span, say) without the
// submission loop capturing ctx in every closure. Tasks submitted with
// plain Go and with GoCtx may be mixed freely.
func (g *Group) GoCtx(f func(ctx context.Context) error) {
	g.Go(func() error { return f(g.ctx) })
}

// record notes the first failure; later errors are dropped (callers that
// need a deterministic pick collect per-task errors themselves).
func (g *Group) record(err error) {
	g.mu.Lock()
	if !g.fail {
		g.fail, g.err = true, err
	}
	g.mu.Unlock()
}

// Wait blocks until every submitted task has finished and returns the
// first error observed (completion order). Callers that need a
// deterministic error pick collect per-task errors themselves and use
// Wait's result only as a fallback.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

func (g *Group) failed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fail
}
