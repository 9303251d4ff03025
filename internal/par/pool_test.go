package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"because/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestGroupRunsEveryTask(t *testing.T) {
	g := NewGroupContext(context.Background(), 3, nil, "test")
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		g.Go(func() error {
			n.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestGroupBoundsConcurrency(t *testing.T) {
	const limit = 4
	g := NewGroupContext(context.Background(), limit, nil, "test")
	var cur, max atomic.Int64
	for i := 0; i < 64; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			runtime.Gosched()
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if max.Load() > limit {
		t.Errorf("observed %d concurrent tasks, limit %d", max.Load(), limit)
	}
}

func TestGroupFirstErrorWinsAndSkipsRest(t *testing.T) {
	boom := errors.New("boom")
	g := NewGroupContext(context.Background(), 1, nil, "test")
	var ran atomic.Int64
	g.Go(func() error { ran.Add(1); return boom })
	// With one worker the failure is recorded before later submissions
	// acquire the slot, so they must be skipped.
	for i := 0; i < 10; i++ {
		g.Go(func() error { ran.Add(1); return nil })
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	if ran.Load() != 1 {
		t.Errorf("ran %d tasks after failure, want 1", ran.Load())
	}
}

func TestGroupPoolMetrics(t *testing.T) {
	observer := obs.New(nil, obs.NewRegistry())
	g := NewGroupContext(context.Background(), 2, observer, "unit")
	for i := 0; i < 9; i++ {
		g.Go(func() error { return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := scrape(t, observer.Metrics)
	if got := snap[obs.MetricPoolTasks+`{pool="unit"}`]; got != 9 {
		t.Errorf("task counter = %g, want 9", got)
	}
	if got := snap[obs.MetricPoolBusy+`{pool="unit"}`]; got != 0 {
		t.Errorf("busy gauge after Wait = %g, want 0", got)
	}
}

// TestGroupStress hammers the pool from many submitters under -race: tasks
// write to disjoint slots, the canonical usage pattern of core.Infer.
func TestGroupStress(t *testing.T) {
	const tasks = 400
	g := NewGroupContext(context.Background(), 8, obs.New(nil, obs.NewRegistry()), "stress")
	results := make([]int, tasks)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < tasks; i += 4 {
				g.Go(func() error {
					results[i] = i * i
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestGroupContextCancelSkipsQueuedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroupContext(ctx, 1, nil, "test")
	var ran atomic.Int64
	release := make(chan struct{})
	g.Go(func() error {
		ran.Add(1)
		cancel() // cancel while occupying the only worker
		<-release
		return nil
	})
	// These submissions queue behind the running task (the first Go call
	// holds the only worker slot); by the time they acquire it the context
	// is cancelled, so every one of them must be skipped.
	var submitted sync.WaitGroup
	for i := 0; i < 8; i++ {
		submitted.Add(1)
		go func() {
			defer submitted.Done()
			g.Go(func() error { ran.Add(1); return nil })
		}()
	}
	close(release)
	submitted.Wait()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d tasks, want exactly the pre-cancellation one", ran.Load())
	}
}

func TestGroupContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGroupContext(ctx, 4, nil, "test")
	var ran atomic.Int64
	for i := 0; i < 16; i++ {
		g.Go(func() error { ran.Add(1); return nil })
	}
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context", ran.Load())
	}
}

func TestGroupNilContext(t *testing.T) {
	g := NewGroupContext(nil, 2, nil, "test") //nolint:staticcheck // nil ctx tolerance is part of the API contract
	var ran atomic.Int64
	g.Go(func() error { ran.Add(1); return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatal("task skipped under nil context")
	}
}

// TestGroupErrorFromConcurrentTasks: with every odd task failing, Wait
// reports task 1 — the earliest-submitted failure — at any scheduling.
func TestGroupErrorFromConcurrentTasks(t *testing.T) {
	g := NewGroupContext(context.Background(), 8, nil, "test")
	for i := 0; i < 32; i++ {
		g.Go(func() error {
			if i%2 == 1 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
	}
	if err := g.Wait(); err == nil || err.Error() != "task 1" {
		t.Fatalf("Wait = %v, want task 1", err)
	}
}

// TestGroupWaitReportsEarliestSubmittedFailure: task 0 fails only after
// task 1's failure is recorded, and Wait still reports task 0's error.
func TestGroupWaitReportsEarliestSubmittedFailure(t *testing.T) {
	first, second := errors.New("task 0"), errors.New("task 1")
	g := NewGroupContext(context.Background(), 2, nil, "test")
	started := make(chan struct{})
	g.Go(func() error {
		// Once task 1 has started, both worker slots are held until it
		// finishes, so this submission returns only after task 1 has
		// released its slot — which it does after recording its failure.
		// The probe itself is skipped.
		<-started
		g.Go(func() error { return nil })
		return first
	})
	g.Go(func() error {
		close(started)
		return second
	})
	if err := g.Wait(); !errors.Is(err, first) {
		t.Fatalf("Wait = %v, want %v", err, first)
	}
}

// TestGroupWaitPrefersCancellation: a task that cancels the group's
// context and then fails makes Wait report the cancellation, not the
// task's own error.
func TestGroupWaitPrefersCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewGroupContext(ctx, 1, nil, "test")
	g.Go(func() error {
		cancel()
		return errors.New("boom")
	})
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestGroupGoCtx: GoCtx hands tasks the group's own context and keeps
// Go's skip-after-cancellation behavior.
func TestGroupGoCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewGroupContext(ctx, 2, nil, "goctx")
	got := make(chan context.Context, 1)
	g.GoCtx(func(tctx context.Context) error {
		got <- tctx
		return nil
	})
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if tctx := <-got; tctx != ctx {
		t.Error("GoCtx did not deliver the group's context")
	}

	cancel()
	g2 := NewGroupContext(ctx, 2, nil, "goctx")
	ran := false
	g2.GoCtx(func(context.Context) error { ran = true; return nil })
	if err := g2.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("GoCtx ran a task on a cancelled group")
	}
}

// scrape parses the registry's Prometheus exposition into a series →
// value map: counters and gauges by series, histograms by their
// name_sum / name_count series (bucket lines are skipped).
func scrape(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i > 0 && !strings.HasPrefix(line, "#") && !strings.Contains(line[:i], "_bucket{") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			out[line[:i]] = v
		}
	}
	return out
}
