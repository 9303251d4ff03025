package experiment

import (
	"context"
	"fmt"
	"slices"
	"sort"
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
// Suite is not safe for concurrent use. Its one fan-out, the prewarm
// behind PrewarmContext and PrewarmRuns, computes distinct intervals on a
// worker pool and fills the cache after the join, while the figure
// generators keep their simple sequential call sites. Results are
// deterministic regardless of the worker count — each campaign derives
// its own RNG stream from the scenario seed and the campaign name alone.
type Suite struct {
	cfg      ScenarioConfig
	pairs    int
	scenario *Scenario
	cache    map[time.Duration]slot
}

// slot is one interval's cache entry: its campaign run and, once
// inferred, the BeCAUSe result and dataset.
type slot struct {
	run *Run
	res *core.Result
	ds  *core.Dataset
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
		cache:    make(map[time.Duration]slot),
	}, nil
}

// Scenario returns the shared world.
func (s *Suite) Scenario() *Scenario { return s.scenario }

// warm completes interval iv's slot v: it runs the campaign unless v holds
// one, then the inference when infer is set and v holds none. It reads and
// writes no Suite state, so prewarm's tasks may run it concurrently. On
// failure the returned slot keeps whatever did succeed.
func (s *Suite) warm(ctx context.Context, iv time.Duration, v slot, infer bool) (slot, error) {
	var err error
	if v.run == nil {
		if v.run, err = s.scenario.RunCampaignContext(ctx, IntervalCampaign(iv, s.pairs)); err != nil {
			return v, err
		}
	}
	if infer && v.res == nil {
		v.res, v.ds, err = v.run.InferContext(ctx)
	}
	return v, err
}

// get is the memo behind the two getters: it completes and caches
// interval iv's slot. Only successes are cached, so a cancelled call is
// recomputed by the next one.
func (s *Suite) get(ctx context.Context, iv time.Duration, infer bool) (slot, error) {
	v, err := s.warm(ctx, iv, s.cache[iv], infer)
	if v.run != nil {
		s.cache[iv] = v
	}
	return v, err
}

// IntervalRunContext returns the (cached) campaign run for one update
// interval. The campaign runs under ctx (so a traced caller records the
// campaign span) but is not cancellable mid-flight.
func (s *Suite) IntervalRunContext(ctx context.Context, interval time.Duration) (*Run, error) {
	v, err := s.get(ctx, interval, false)
	return v.run, err
}

// InferenceContext returns the (cached) BeCAUSe result for one interval.
// The sampler chains stop within one sweep of cancellation, and a
// cancelled inference is recomputed by the next caller rather than cached.
func (s *Suite) InferenceContext(ctx context.Context, interval time.Duration) (*core.Result, *core.Dataset, error) {
	v, err := s.get(ctx, interval, true)
	if err != nil {
		return nil, nil, err
	}
	return v.res, v.ds, nil
}

// PrewarmContext computes the campaign run and inference for every
// interval on a bounded worker pool (ScenarioConfig.Workers; 0 selects
// GOMAXPROCS) and fills the suite's cache, so subsequent generator calls
// hit warm entries. The multi-interval sweeps (Figure 12/13) call it
// first: intervals are independent worlds, the natural fan-out axis of the
// experiment harness. Each distinct interval is computed at most once,
// and stages already cached not at all. Errors are reported
// deterministically (see par.Group.Wait): the first failing interval in
// the given order wins, not the first to fail on the clock. A cancelled
// context skips intervals still queued on the pool, stops running
// inferences within one sweep, and returns ctx.Err().
func (s *Suite) PrewarmContext(ctx context.Context, intervals []time.Duration) error {
	return s.prewarm(ctx, intervals, true)
}

// PrewarmRuns is PrewarmContext without the inference stage: it fans out
// only the campaign simulations. The distribution figures (e.g. Figure 13)
// read raw measurements and never need the sampler output.
func (s *Suite) PrewarmRuns(ctx context.Context, intervals []time.Duration) error {
	return s.prewarm(ctx, intervals, false)
}

func (s *Suite) prewarm(ctx context.Context, intervals []time.Duration, infer bool) error {
	if len(intervals) == 0 {
		intervals = PaperIntervals
	}
	// One task per distinct interval still missing a stage, each writing
	// its own slot; the cache is filled after the join.
	var todo []time.Duration
	var slots []slot
	for _, iv := range intervals {
		v, ok := s.cache[iv]
		if !slices.Contains(todo, iv) && (!ok || infer && v.res == nil) {
			todo, slots = append(todo, iv), append(slots, v)
		}
	}
	pool := par.NewGroupContext(ctx, s.cfg.Workers, s.scenario.Obs, "experiments")
	for i, iv := range todo {
		pool.GoCtx(func(ctx context.Context) (err error) {
			slots[i], err = s.warm(ctx, iv, slots[i], infer)
			return err
		})
	}
	err := pool.Wait()
	for i, iv := range todo {
		if slots[i].run != nil {
			s.cache[iv] = slots[i]
		}
	}
	return err
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
