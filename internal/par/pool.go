// Package par provides the bounded parallel-execution primitive shared by
// the inference engine and the experiment harness: an errgroup-style Group
// that runs tasks on at most N goroutines, skips tasks submitted after a
// failure (cooperative cancellation), and reports one error chosen
// independently of scheduling.
//
// The package contains no randomness, and it is the module's only fan-out
// idiom: pre-assign slots, join, then assemble. Callers pre-compute every
// input (RNG streams included) before submitting tasks, each task writes
// its own pre-assigned result slot, and the caller reads the slots only
// after an error-free Wait — so the result, and the error when there is
// one, are bit-identical at any worker count; only the wall-clock changes.
// That contract is what the reproducibility harness in internal/core pins
// down.
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
	ctx   context.Context
	sem   chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	next  int   //lint:guard mu — submission index of the next task
	first int   //lint:guard mu — index of the earliest-submitted failure
	err   error //lint:guard mu — that failure's error; nil while none

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

// Go submits one task, numbering it in submission order. It blocks until
// a worker slot frees up (bounding both concurrency and the submission
// loop), then runs f on its own goroutine. After any task has failed — or
// the group's context has been cancelled — subsequent tasks are skipped:
// their slots are never written, which is fine because the caller only
// reads results after an error-free Wait.
func (g *Group) Go(f func() error) {
	g.sem <- struct{}{}
	g.mu.Lock()
	i, failed := g.next, g.err != nil
	g.next++
	g.mu.Unlock()
	if failed {
		<-g.sem
		return
	}
	if err := g.ctx.Err(); err != nil {
		// A skip counts as a failure, so Wait reports the cancellation.
		g.record(i, err)
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
			g.record(i, err)
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

// record latches the failure of task i if no earlier-submitted task has
// failed.
func (g *Group) record(i int, err error) {
	g.mu.Lock()
	if g.err == nil || i < g.first {
		g.first, g.err = i, err
	}
	g.mu.Unlock()
}

// Wait blocks until every submitted task has finished. If any task failed
// or was skipped, it returns ctx.Err() when the group's context is done,
// and otherwise the error of the earliest-submitted task that failed. Both
// are independent of scheduling: tasks submitted after a failure are
// skipped, and every task before the first failing one succeeds, so the
// first failing task always runs and always wins the latch — at any
// worker count, whichever task fails first on the clock.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	err := g.err
	g.mu.Unlock()
	if ctxErr := g.ctx.Err(); err != nil && ctxErr != nil {
		return ctxErr
	}
	return err
}
