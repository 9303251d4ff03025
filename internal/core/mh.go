package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"because/internal/obs"
	"because/internal/stats"
)

// MHConfig configures the Metropolis–Hastings sampler. The sampler is a
// random-scan single-coordinate random walk (Metropolis-within-Gibbs): each
// sweep proposes a truncated-normal move for every coordinate in random
// order, with the proposal-asymmetry correction of Eq. 7.
type MHConfig struct {
	// Sweeps is the number of post-burn-in sweeps retained (one sample per
	// sweep). Default 1500.
	Sweeps int
	// BurnIn sweeps are discarded. Default Sweeps/4.
	BurnIn int
	// StepSize is the proposal standard deviation. Default 0.15.
	StepSize float64
	// Thin keeps every Thin-th sweep. Default 1.
	Thin int
	// Model selects the observation model the sampler draws against. Nil
	// selects RFDModel{} — the paper's § 3.1 likelihood, bit for bit.
	Model ObservationModel

	// Chain tags metrics and progress events with the chain index when the
	// sampler runs as part of a multi-chain ensemble (set by Infer).
	Chain int
	// Obs receives per-run sampler metrics (sweep counters, acceptance
	// rate, throughput) and debug logs. Nil costs one pointer check.
	Obs *obs.Observer
	// Progress, when non-nil, is invoked every ProgressEvery sweeps and
	// once more at completion, synchronously from the sampling loop.
	Progress obs.ProgressFunc
	// ProgressEvery is the progress cadence in sweeps (default 100).
	ProgressEvery int
}

func (c MHConfig) withDefaults() MHConfig {
	if c.Sweeps == 0 {
		c.Sweeps = 1500
	}
	if c.BurnIn == 0 {
		c.BurnIn = c.Sweeps / 4
	}
	if c.StepSize == 0 {
		c.StepSize = 0.15
	}
	if c.Thin == 0 {
		c.Thin = 1
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 100
	}
	return c
}

func (c MHConfig) validate() error {
	if c.Sweeps < 1 || c.BurnIn < 0 || c.StepSize <= 0 || c.Thin < 1 || c.ProgressEvery < 1 {
		return fmt.Errorf("core: invalid MH config %+v", c)
	}
	return nil
}

// RunMH draws samples from the posterior with Metropolis–Hastings.
func RunMH(ds *Dataset, prior Prior, cfg MHConfig, rng *stats.RNG) (*Chain, error) {
	return RunMHContext(context.Background(), ds, prior, cfg, rng)
}

// RunMHContext is RunMH under a context: cancellation is checked once per
// sweep (never inside one, so a run that completes is bit-identical to an
// uncancelled run — the check draws nothing from the RNG), and a cancelled
// run returns ctx.Err() with no partial chain.
func RunMHContext(ctx context.Context, ds *Dataset, prior Prior, cfg MHConfig, rng *stats.RNG) (*Chain, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := prior.Validate(); err != nil {
		return nil, err
	}
	if ds.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	model := modelOrDefault(cfg.Model)
	if err := model.Validate(); err != nil {
		return nil, err
	}
	n := ds.NumNodes()

	// Initialise from the prior.
	betaDist := stats.NewBeta(prior.Alpha, prior.Beta)
	p0 := make([]float64, n)
	for i := range p0 {
		p0[i] = clampP(betaDist.Sample(rng))
	}
	st := model.NewState(ds, p0)

	chain := &Chain{Method: "mh", Nodes: ds.Nodes()}
	total := cfg.BurnIn + cfg.Sweeps
	// Metric handles are resolved once; with no observer they are nil and
	// every update below is a single pointer check (the no-op fast path).
	chainLabel := obs.ChainLabel(cfg.Chain)
	sweepCtr := cfg.Obs.Counter(obs.MetricSweeps, "method", "mh", "chain", chainLabel)
	// Observability-only timing: feeds the sweep-rate gauge and the done
	// log line below, never the samples.
	start := time.Now() //lint:allow determinism
	order := make([]int, n)
	for sweep := 0; sweep < total; sweep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acc, prop := mhSweep(st, prior, cfg.StepSize, order, rng)
		chain.Accepted += acc
		chain.Proposed += prop
		if sweep >= cfg.BurnIn && (sweep-cfg.BurnIn)%cfg.Thin == 0 {
			chain.Samples = append(chain.Samples, append([]float64(nil), st.Probabilities()...))
		}
		// Periodically cancel numeric drift in the incremental cache.
		if sweep%256 == 255 {
			st.Recompute()
		}
		sweepCtr.Inc()
		if cfg.Progress != nil && (sweep+1)%cfg.ProgressEvery == 0 && sweep+1 < total {
			cfg.Progress(obs.Progress{
				Stage: "mh", Chain: cfg.Chain, Done: sweep + 1, Total: total,
				Accepted: chain.Accepted, Proposed: chain.Proposed,
			})
		}
	}
	if cfg.Obs != nil {
		elapsed := time.Since(start) //lint:allow determinism — observability-only
		cfg.Obs.Gauge(obs.MetricAcceptance, "method", "mh", "chain", chainLabel).Set(chain.AcceptanceRate())
		if secs := elapsed.Seconds(); secs > 0 {
			cfg.Obs.Gauge(obs.MetricSweepRate, "method", "mh", "chain", chainLabel).Set(float64(total) / secs)
		}
		cfg.Obs.Log(obs.LevelInfo, "mh chain done",
			"chain", cfg.Chain, "sweeps", total, "retained", chain.Len(),
			"acceptance", chain.AcceptanceRate(), "elapsed", elapsed)
	}
	if cfg.Progress != nil {
		cfg.Progress(obs.Progress{
			Stage: "mh", Chain: cfg.Chain, Done: total, Total: total,
			Accepted: chain.Accepted, Proposed: chain.Proposed,
		})
	}
	return chain, nil
}

// mhSweep runs one random-scan Metropolis-within-Gibbs sweep: every
// coordinate, in a fresh random order written into the caller's order
// buffer, gets a truncated-normal proposal with the asymmetry correction
// of Eq. 7. The draw sequence is identical to the pre-extraction inline
// loop, so chains are bit-for-bit stable across the refactor. The sweep
// touches the likelihood only through the ModelState interface — every
// implementation's kernels must stay allocation-free (the hotpath
// contract below resolves the interface calls against all of them).
//
//lint:hotpath
func mhSweep(st ModelState, prior Prior, stepSize float64, order []int, rng *stats.RNG) (accepted, proposed int) {
	rng.PermInto(order)
	// Apply mutates the vector in place, so the slice stays current
	// across the whole sweep (part of the Probabilities contract).
	pvec := st.Probabilities()
	for _, i := range order {
		cur := pvec[i]
		prop := stats.TruncNormal{Mu: cur, Sigma: stepSize, Lo: 0, Hi: 1}
		cand := clampP(prop.Sample(rng))
		// log acceptance ratio: likelihood delta + prior delta +
		// proposal asymmetry Q(p|p')/Q(p'|p).
		back := stats.TruncNormal{Mu: cand, Sigma: stepSize, Lo: 0, Hi: 1}
		logAlpha := st.DeltaFor(i, cand) +
			logPriorAt(prior, cand) - logPriorAt(prior, cur) +
			back.LogPDF(cur) - prop.LogPDF(cand)
		proposed++
		if logAlpha >= 0 || math.Log(rng.Float64()+1e-300) < logAlpha {
			st.Apply(i, cand)
			accepted++
		}
	}
	return accepted, proposed
}
