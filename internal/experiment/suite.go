package experiment

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"because/internal/core"
	"because/internal/par"
)

// PaperIntervals are the six beacon update intervals of the study
// (March 2020: 1, 2, 3 min; April 2020: 5, 10, 15 min).
var PaperIntervals = []time.Duration{
	1 * time.Minute, 2 * time.Minute, 3 * time.Minute,
	5 * time.Minute, 10 * time.Minute, 15 * time.Minute,
}

// Suite caches the scenario, campaign runs and inference results so the
// table/figure generators can share them — running the 1-minute campaign
// once instead of once per figure.
//
// Suite is safe for concurrent use: each interval's campaign and inference
// are computed exactly once (duplicate callers wait for the first), which
// is what lets PrewarmContext fan intervals out over a worker pool while
// the figure generators keep their simple sequential call sites. Results are
// deterministic regardless of concurrency — each campaign derives its own
// RNG stream from the scenario seed and the campaign name alone.
type Suite struct {
	cfg      ScenarioConfig
	pairs    int
	scenario *Scenario

	mu     sync.Mutex
	runs   map[time.Duration]*cell[*Run]     //lint:guard mu
	infers map[time.Duration]*cell[inferVal] //lint:guard mu
}

// inferVal pairs the two outputs of an inference slot.
type inferVal struct {
	res *core.Result
	ds  *core.Dataset
}

// cell is a cancellation-aware singleflight slot: the first caller (the
// leader) computes; everyone else blocks on the leader's completion or on
// their own context. A leader that fails with a context error resets the
// cell instead of caching the failure — the NEXT caller recomputes — so
// one cancelled request can never poison the suite's cache for everyone.
// Non-context failures are cached like values, preserving the old
// sync.Once behaviour.
type cell[T any] struct {
	mu   sync.Mutex
	done chan struct{} //lint:guard mu — non-nil while computing or once settled
	set  bool          //lint:guard mu — val/err are final
	val  T             //lint:guard mu
	err  error         //lint:guard mu
}

// get returns the cached value, computing it if this caller is elected
// leader. A waiter whose ctx is cancelled returns ctx.Err() without
// disturbing the in-flight computation.
func (c *cell[T]) get(ctx context.Context, compute func() (T, error)) (T, error) {
	var zero T
	c.mu.Lock()
	for {
		if c.set {
			val, err := c.val, c.err
			c.mu.Unlock()
			return val, err
		}
		if c.done == nil {
			// Become the leader.
			done := make(chan struct{})
			c.done = done
			c.mu.Unlock()
			val, err := compute()
			c.mu.Lock()
			if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				c.done = nil // reset: let a future caller retry
			} else {
				c.set, c.val, c.err = true, val, err
			}
			// The sanctioned broadcast-under-mutex idiom: close never
			// blocks, and followers must see set/val/err before they wake.
			close(done) //lint:allow lockcheck close never blocks; followers must wake after the result is published
			c.mu.Unlock()
			return val, err
		}
		// Wait for the leader, or give up on our own context.
		done := c.done
		c.mu.Unlock()
		select {
		case <-done:
			c.mu.Lock() // loop: read the settled value, or retry as leader
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// NewSuite builds the scenario once. pairs is the number of Burst-Break
// pairs per campaign (0 selects 3).
func NewSuite(cfg ScenarioConfig, pairs int) (*Suite, error) {
	if pairs == 0 {
		pairs = 3
	}
	s, err := NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{
		cfg:      cfg,
		pairs:    pairs,
		scenario: s,
		runs:     make(map[time.Duration]*cell[*Run]),
		infers:   make(map[time.Duration]*cell[inferVal]),
	}, nil
}

// Scenario returns the shared world.
func (s *Suite) Scenario() *Scenario { return s.scenario }

// IntervalRunContext returns the (cached) campaign run for one update
// interval. Concurrent callers for the same interval share one
// computation, which runs under the leader's ctx (so a traced leader
// records the campaign span). The campaign simulation itself is not
// cancellable mid-flight, but a waiter blocked on another caller's
// computation returns ctx.Err() as soon as its context is cancelled.
func (s *Suite) IntervalRunContext(ctx context.Context, interval time.Duration) (*Run, error) {
	s.mu.Lock()
	slot, ok := s.runs[interval]
	if !ok {
		slot = &cell[*Run]{}
		s.runs[interval] = slot
	}
	s.mu.Unlock()
	return slot.get(ctx, func() (*Run, error) {
		return s.scenario.RunCampaignContext(ctx, IntervalCampaign(interval, s.pairs))
	})
}

// InferenceContext returns the (cached) BeCAUSe result for one interval.
// Concurrent callers for the same interval share one computation. A
// leader's sampler chains stop within one sweep of cancellation, a
// cancelled leader's slot is recomputed by the next caller rather than
// cached, and cancelled waiters return ctx.Err() immediately.
func (s *Suite) InferenceContext(ctx context.Context, interval time.Duration) (*core.Result, *core.Dataset, error) {
	s.mu.Lock()
	slot, ok := s.infers[interval]
	if !ok {
		slot = &cell[inferVal]{}
		s.infers[interval] = slot
	}
	s.mu.Unlock()
	v, err := slot.get(ctx, func() (inferVal, error) {
		run, err := s.IntervalRunContext(ctx, interval)
		if err != nil {
			return inferVal{}, err
		}
		res, ds, err := run.InferContext(ctx)
		return inferVal{res: res, ds: ds}, err
	})
	return v.res, v.ds, err
}

// PrewarmContext computes the campaign run and inference for every
// interval on a bounded worker pool (ScenarioConfig.Workers; 0 selects
// GOMAXPROCS) and fills the suite's caches, so subsequent generator calls
// hit warm entries. The multi-interval sweeps (Figure 12/13) call it
// first: intervals are independent worlds, the natural fan-out axis of the
// experiment harness. Errors are reported deterministically — the first
// failing interval in the given order wins, not the first to fail on the
// clock. A cancelled context skips intervals still queued on the pool,
// stops running inferences within one sweep, and returns ctx.Err().
func (s *Suite) PrewarmContext(ctx context.Context, intervals []time.Duration) error {
	return s.prewarm(ctx, intervals, func(iv time.Duration) error {
		_, _, err := s.InferenceContext(ctx, iv)
		return err
	})
}

// PrewarmRuns is PrewarmContext without the inference stage: it fans out
// only the campaign simulations. The distribution figures (e.g. Figure 13)
// read raw measurements and never need the sampler output.
func (s *Suite) PrewarmRuns(ctx context.Context, intervals []time.Duration) error {
	return s.prewarm(ctx, intervals, func(iv time.Duration) error {
		_, err := s.IntervalRunContext(ctx, iv)
		return err
	})
}

func (s *Suite) prewarm(ctx context.Context, intervals []time.Duration, warm func(time.Duration) error) error {
	if len(intervals) == 0 {
		intervals = PaperIntervals
	}
	pool := par.NewGroupContext(ctx, s.cfg.Workers, s.scenario.Obs, "experiments")
	errs := make([]error, len(intervals))
	for i, iv := range intervals {
		i, iv := i, iv
		pool.Go(func() error {
			errs[i] = warm(iv)
			return errs[i]
		})
	}
	if err := pool.Wait(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return err
	}
	return nil
}

// Report is a rendered experiment: a title, paper-style text rows, and is
// what cmd/experiments prints.
type Report struct {
	ID    string
	Title string
	Lines []string
}

// String renders the report.
func (r Report) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		out += l + "\n"
	}
	return out
}

// sortedDurations returns ds ascending.
func sortedDurations(m map[time.Duration]bool) []time.Duration {
	var out []time.Duration
	for d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
