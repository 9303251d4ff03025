package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"because/internal/bgp"
	"because/internal/obs"
	"because/internal/par"
	"because/internal/stats"
)

// Result is a full inference outcome.
type Result struct {
	// Model names the observation model the samplers drew against
	// ("rfd" or "churn", resolved from Config.Model.Name).
	Model string
	// Summaries are per-AS outcomes in dataset node order.
	Summaries []NodeSummary
	// Chains are the raw sampler outputs ("mh" and/or "hmc").
	Chains []*Chain
	// Pinpointed lists ASes upgraded by the inconsistent-damper pass.
	Pinpointed []NodeSummary

	// index maps ASN → Summaries position. Built by InferContext; for
	// manually constructed Results the first Lookup builds it lazily.
	index map[bgp.ASN]int
}

func (r *Result) buildIndex() {
	idx := make(map[bgp.ASN]int, len(r.Summaries))
	for i, s := range r.Summaries {
		idx[s.ASN] = i
	}
	r.index = idx
}

// Lookup returns the summary for the given AS in O(1) via an ASN index
// built once per Result.
func (r *Result) Lookup(asn uint32) (NodeSummary, bool) {
	if r.index == nil {
		r.buildIndex()
	}
	i, ok := r.index[bgp.ASN(asn)]
	if !ok {
		return NodeSummary{}, false
	}
	return r.Summaries[i], true
}

// Positives returns the summaries flagged Category 4 or 5.
func (r *Result) Positives() []NodeSummary {
	var out []NodeSummary
	for _, s := range r.Summaries {
		if s.Category.Positive() {
			out = append(out, s)
		}
	}
	return out
}

// CategoryCounts returns how many ASes landed in each category (index 1..5).
func (r *Result) CategoryCounts() [6]int {
	var counts [6]int
	for _, s := range r.Summaries {
		if s.Category >= 1 && s.Category <= 5 {
			counts[s.Category]++
		}
	}
	return counts
}

// InferContext runs the configured samplers over the dataset and produces
// categorised per-AS summaries — the complete BeCAUSe pipeline of § 5.1.
// Cancellation is cooperative at sweep/trajectory granularity: every
// running chain returns ctx.Err() within one sweep of cancellation, chains
// still queued on the worker pool are skipped before they start, and the
// whole call then returns ctx.Err(). A run that completes is unaffected —
// the per-sweep check draws nothing from the RNG, so the
// bit-identical-at-any-worker-count guarantee holds with or without a
// cancellable context. cfg goes through Resolve first, whose
// *ConfigError is returned unwrapped.
func InferContext(ctx context.Context, ds *Dataset, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	if ds == nil || ds.NumPaths() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	workers := par.Workers(cfg.Workers)
	o := cfg.Obs
	if o != nil {
		o.Counter(obs.MetricInferRuns).Inc()
		o.Gauge(obs.MetricInferNodes).Set(float64(ds.NumNodes()))
		o.Gauge(obs.MetricInferPaths).Set(float64(ds.NumPaths()))
		o.Log(obs.LevelInfo, "inference started",
			"paths", ds.NumPaths(), "nodes", ds.NumNodes(), "chains", cfg.Chains,
			"mh", !cfg.DisableMH, "hmc", !cfg.DisableHMC,
			"model", cfg.Model.Name, "workers", workers)
	}
	// Progress callbacks may now arrive from several chain goroutines;
	// serialise them so user callbacks keep their single-threaded contract.
	if cfg.Progress != nil {
		var mu sync.Mutex
		report := cfg.Progress
		cfg.Progress = func(p obs.Progress) {
			mu.Lock()
			defer mu.Unlock()
			report(p)
		}
	}

	// Pre-split one RNG stream per chain, in a fixed order, BEFORE any
	// chain starts: stream assignment depends only on the seed and the
	// configuration, never on scheduling. Each chain then writes into its
	// pre-assigned slot, so the assembled Chains slice — and everything
	// derived from it — is bit-identical at every worker count.
	rng := stats.NewRNG(cfg.Seed)
	type chainJob struct {
		method  string
		sampler sampler
		chain   int // MH chain index (0 for HMC)
		rng     *stats.RNG
	}
	var jobs []chainJob
	if !cfg.DisableMH {
		for k := 0; k < cfg.Chains; k++ {
			jobs = append(jobs, chainJob{method: "mh", sampler: cfg.MH, chain: k, rng: rng.Split()})
		}
	}
	if !cfg.DisableHMC {
		jobs = append(jobs, chainJob{method: "hmc", sampler: cfg.HMC, rng: rng.Split()})
	}

	// Trace spans are pre-created here, in job order, BEFORE the fan-out —
	// exactly like the RNG streams above — so the exported span tree (IDs,
	// names, nesting) depends only on the configuration, never on which
	// worker finishes first. Workers only End their pre-assigned span;
	// sampler attributes are attached after the join, in chain order. With
	// no trace on ctx every chain span is nil and each call is a no-op.
	sampleSpan, _ := o.StartSpan(ctx, "sample")
	chainSpans := make([]*obs.TraceSpan, len(jobs))
	for i, job := range jobs {
		if job.method == "mh" {
			chainSpans[i] = sampleSpan.StartChild(fmt.Sprintf("mh[%02d]", job.chain))
		} else {
			chainSpans[i] = sampleSpan.StartChild("hmc")
		}
	}

	// The pool reports ctx.Err() on cancellation — errors.Is-able, and
	// independent of which chain noticed it first — and otherwise the
	// failure of the earliest chain in job order, not in completion order.
	pool := par.NewGroupContext(ctx, workers, o, "infer")
	chains := make([]*Chain, len(jobs))
	for i, job := range jobs {
		pool.GoCtx(func(ctx context.Context) error {
			// Observability-only timing: feeds the per-chain duration
			// histogram, never the chain's samples.
			start := time.Now() //lint:allow determinism
			cctx := obs.ContextWithSpan(ctx, chainSpans[i])
			c, err := runChain(cctx, ds, cfg, job.sampler, job.chain, job.rng)
			chains[i] = c
			chainSpans[i].End()
			if o != nil {
				o.Histogram(obs.MetricChainSeconds, nil, "method", job.method).
					Observe(time.Since(start).Seconds()) //lint:allow determinism — observability-only
			}
			if err != nil {
				return fmt.Errorf("core: %s: %w", strings.ToUpper(job.method), err)
			}
			return nil
		})
	}
	err = pool.Wait()
	sampleSpan.End()
	if err != nil {
		return nil, err
	}
	// Attach sampler statistics to the chain spans now that the fan-out has
	// joined: attribute order is chain order, deterministic by construction.
	for i, c := range chains {
		ts := chainSpans[i]
		if ts == nil || c == nil {
			continue
		}
		ts.SetAttr("method", c.Method)
		if jobs[i].method == "mh" {
			ts.SetAttr("chain", jobs[i].chain)
		}
		ts.SetAttr("sweeps", c.Len())
		ts.SetAttr("accepted", c.Accepted)
		ts.SetAttr("proposed", c.Proposed)
		ts.SetAttr("acceptance", c.AcceptanceRate())
		if c.Method == "hmc" {
			ts.SetAttr("divergent", c.Divergent)
		}
	}
	var mhChains []*Chain
	if !cfg.DisableMH {
		mhChains = chains[:cfg.Chains]
	}
	summaries, err := summarizeStage(ctx, o, ds, chains, mhChains, cfg.HDPIMass)
	if err != nil {
		return nil, err
	}
	res := &Result{Model: cfg.Model.Name, Summaries: summaries, Chains: chains}
	res.buildIndex()
	if cfg.PinpointThreshold > 0 {
		res.pinpoint(ctx, o, ds, cfg.PinpointThreshold)
	}
	return res, nil
}

// summarizeStage is InferContext's "summarize" stage: per-node summaries
// over every chain, R-hat across the MH chains when there are two or
// more, and the convergence gauges.
func summarizeStage(ctx context.Context, o *obs.Observer, ds *Dataset, chains, mhChains []*Chain, mass float64) ([]NodeSummary, error) {
	span, _ := o.StartSpan(ctx, "summarize")
	defer span.End()
	summaries, err := Summarize(ds, chains, mass)
	if err != nil {
		return nil, err
	}
	if len(mhChains) >= 2 {
		rhatMax := math.Inf(-1)
		// One column buffer per chain serves every node.
		marginals := make([][]float64, len(mhChains))
		for i := range summaries {
			for k, c := range mhChains {
				marginals[k] = c.marginalInto(marginals[k], i)
			}
			summaries[i].RHat = RHat(marginals)
			if r := summaries[i].RHat; !math.IsNaN(r) && r > rhatMax {
				rhatMax = r
			}
		}
		if o != nil && !math.IsInf(rhatMax, -1) {
			o.Gauge(obs.MetricRHatMax).Set(rhatMax)
			o.Log(obs.LevelInfo, "convergence diagnostics", "rhat_max", rhatMax, "chains", len(mhChains))
		}
	}
	if o != nil && len(chains) > 0 {
		// Minimum per-node effective sample size across ALL chains — the
		// mixing-quality floor a dashboard should alert on. Taking the min
		// over every chain (not just the first) means one badly mixing
		// chain in an ensemble cannot hide behind its siblings.
		essMin := math.Inf(1)
		longest := 0
		for _, c := range chains {
			longest = max(longest, c.Len())
		}
		col, centred := make([]float64, 0, longest), make([]float64, longest)
		for _, c := range chains {
			for i := 0; i < ds.NumNodes(); i++ {
				col = c.marginalInto(col, i)
				if e := essInto(centred, col); e < essMin {
					essMin = e
				}
			}
		}
		if !math.IsInf(essMin, 1) {
			o.Gauge(obs.MetricESSMin).Set(essMin)
		}
	}
	span.SetAttr("nodes", len(summaries))
	return summaries, nil
}

// pinpoint is InferContext's "pinpoint" stage: the Eq. 8
// inconsistent-damper pass over the summarised result.
func (r *Result) pinpoint(ctx context.Context, o *obs.Observer, ds *Dataset, threshold float64) {
	span, _ := o.StartSpan(ctx, "pinpoint")
	defer span.End()
	upgraded := PinpointInconsistent(ds, r.Chains, r.Summaries, threshold)
	for _, asn := range upgraded {
		if i, ok := r.index[asn]; ok {
			r.Pinpointed = append(r.Pinpointed, r.Summaries[i])
		}
	}
	span.SetAttr("upgraded", len(upgraded))
	if o != nil && len(upgraded) > 0 {
		o.Log(obs.LevelInfo, "pinpointing upgraded ASes", "count", len(upgraded))
	}
}
