package core

import (
	"context"
	"fmt"
	"time"

	"because/internal/bgp"
	"because/internal/obs"
	"because/internal/stats"
)

// Chain holds the posterior samples produced by one sampler run.
type Chain struct {
	// Method names the sampler ("mh" or "hmc").
	Method string
	// Nodes maps sample columns to ASes (dataset index order).
	Nodes []bgp.ASN
	// Samples[t][i] is node i's value in the t-th retained sample.
	Samples [][]float64
	// Accepted and Proposed count Metropolis decisions (for MH these are
	// per-coordinate proposals; for HMC per trajectory).
	Accepted, Proposed int
	// Divergent counts HMC trajectories whose Hamiltonian error exceeded
	// the divergence threshold — the leapfrog integrator blew up. Always 0
	// for MH. A non-trivial divergence share means the posterior geometry
	// is not being explored faithfully; lower HMCConfig.StepSize.
	Divergent int
}

// AcceptanceRate returns Accepted/Proposed (0 when nothing was proposed).
func (c *Chain) AcceptanceRate() float64 {
	if c.Proposed == 0 {
		return 0
	}
	return float64(c.Accepted) / float64(c.Proposed)
}

// Len returns the number of retained samples.
func (c *Chain) Len() int { return len(c.Samples) }

// Marginal returns the sample column of node index i — the marginal
// posterior P(p_i | D) as samples.
func (c *Chain) Marginal(i int) []float64 {
	out := make([]float64, len(c.Samples))
	for t, s := range c.Samples {
		out[t] = s[i]
	}
	return out
}

// sampler is one MCMC method as the chain driver sees it. MHConfig and
// HMCConfig implement it; everything else about a chain is runChain's.
type sampler interface {
	// schedule applies the method's defaults and returns its name with
	// the burn-in and retained step counts, or an error naming the first
	// invalid field.
	schedule() (method string, burnIn, retained int, err error)
	// start returns the method's transition kernel positioned at p0, the
	// start state the driver drew from the prior. o and chain label the
	// kernel's own metric series, if it has any.
	start(model ObservationModel, ds *Dataset, prior Prior, p0 []float64, o *obs.Observer, chain string) kernel
}

// kernel is a sampler's transition rule and the state it moves.
type kernel interface {
	// step advances the state by one step (an MH sweep, an HMC
	// trajectory), drawing only from rng and counting its Metropolis
	// decisions on c; t is the step's index from 0.
	step(c *Chain, t int, rng *stats.RNG)
	// state is the current position, the one retained as a sample.
	state() ModelState
}

// RunMH draws one Metropolis–Hastings chain from the posterior. cfg.MH
// sets its length; cfg's prior, model, observer and progress settings
// apply as in InferContext, and the chain's metrics and progress events
// carry chain index 0. Cancellation is checked once per sweep and draws
// nothing from the RNG, so a run that completes is bit-identical to an
// uncancelled one; a cancelled run returns ctx.Err() and no chain.
func RunMH(ctx context.Context, ds *Dataset, cfg Config, rng *stats.RNG) (*Chain, error) {
	return runChain(ctx, ds, cfg, cfg.MH, 0, rng)
}

// RunHMC is RunMH for Hamiltonian Monte Carlo: cfg.HMC sets the chain's
// length and integrator, and cancellation is checked once per trajectory.
func RunHMC(ctx context.Context, ds *Dataset, cfg Config, rng *stats.RNG) (*Chain, error) {
	return runChain(ctx, ds, cfg, cfg.HMC, 0, rng)
}

// runChain is the one chain driver behind RunMH, RunHMC and InferContext.
// It validates the run, draws the start state from the prior, then steps
// the sampler's kernel through burn-in and retention, reporting metrics,
// progress and a done log under cfg.Obs and cfg.Progress; chain is the
// chain's index within an ensemble. The per-step cancellation check sits
// between steps, never inside one.
func runChain(ctx context.Context, ds *Dataset, cfg Config, s sampler, chain int, rng *stats.RNG) (*Chain, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	method, burnIn, retained, err := s.schedule()
	if err != nil {
		return nil, err
	}
	if cfg.ProgressEvery < 1 {
		return nil, fmt.Errorf("core: Config.ProgressEvery must be ≥ 1, got %d", cfg.ProgressEvery)
	}
	if err := cfg.Prior.Validate(); err != nil {
		return nil, err
	}
	if ds.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	model := modelOrDefault(cfg.Model)
	if err := model.Validate(); err != nil {
		return nil, err
	}

	betaDist := stats.NewBeta(cfg.Prior.Alpha, cfg.Prior.Beta)
	p0 := make([]float64, ds.NumNodes())
	for i := range p0 {
		p0[i] = clampP(betaDist.Sample(rng))
	}
	label := obs.ChainLabel(chain)
	k := s.start(model, ds, cfg.Prior, p0, cfg.Obs, label)

	c := &Chain{Method: method, Nodes: ds.Nodes()}
	total := burnIn + retained
	progress := func(done int) {
		cfg.Progress(obs.Progress{
			Stage: method, Chain: chain, Done: done, Total: total,
			Accepted: c.Accepted, Proposed: c.Proposed,
		})
	}
	// Metric handles are resolved once; with no observer they are nil and
	// every update below is a single pointer check (the no-op fast path).
	stepCtr := cfg.Obs.Counter(obs.MetricSweeps, "method", method, "chain", label)
	// Observability-only timing: feeds the sweep-rate gauge and the done
	// log line below, never the samples.
	start := time.Now() //lint:allow determinism
	for t := 0; t < total; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k.step(c, t, rng)
		if t >= burnIn {
			c.Samples = append(c.Samples, append([]float64(nil), k.state().Probabilities()...))
		}
		stepCtr.Inc()
		if cfg.Progress != nil && (t+1)%cfg.ProgressEvery == 0 && t+1 < total {
			progress(t + 1)
		}
	}
	if o := cfg.Obs; o != nil {
		elapsed := time.Since(start) //lint:allow determinism — observability-only
		o.Gauge(obs.MetricAcceptance, "method", method, "chain", label).Set(c.AcceptanceRate())
		if secs := elapsed.Seconds(); secs > 0 {
			o.Gauge(obs.MetricSweepRate, "method", method, "chain", label).Set(float64(total) / secs)
		}
		o.Log(obs.LevelInfo, method+" chain done",
			"chain", chain, "sweeps", total, "retained", c.Len(),
			"acceptance", c.AcceptanceRate(), "divergences", c.Divergent, "elapsed", elapsed)
	}
	if cfg.Progress != nil {
		progress(total)
	}
	return c, nil
}
