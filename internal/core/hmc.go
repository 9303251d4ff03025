package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"because/internal/obs"
	"because/internal/stats"
)

// HMCConfig configures the Hamiltonian Monte Carlo sampler. HMC runs in
// logit space (θ_i = logit p_i), where the posterior is unconstrained and
// smooth; trajectories follow the gradient of the log posterior, making
// multi-dimensional moves that escape the local modes a random walk gets
// stuck in.
type HMCConfig struct {
	// Iterations is the number of retained trajectories. Default 800.
	Iterations int
	// BurnIn trajectories are discarded. Default Iterations/4.
	BurnIn int
	// Leapfrog is the number of integration steps per trajectory.
	// Default 12.
	Leapfrog int
	// StepSize is the leapfrog step. Default 0.08.
	StepSize float64
	// Jitter randomises the per-trajectory step size by ±Jitter·StepSize
	// to avoid resonance. Default 0.2.
	Jitter float64
	// Model selects the observation model the sampler draws against. Nil
	// selects RFDModel{} — the paper's § 3.1 likelihood, bit for bit.
	Model ObservationModel

	// Chain tags metrics and progress events with the chain index.
	Chain int
	// Obs receives per-run sampler metrics (trajectory counters,
	// acceptance rate, divergences, throughput) and debug logs.
	Obs *obs.Observer
	// Progress, when non-nil, is invoked every ProgressEvery trajectories
	// and once more at completion.
	Progress obs.ProgressFunc
	// ProgressEvery is the progress cadence in trajectories (default 100).
	ProgressEvery int
}

func (c HMCConfig) withDefaults() HMCConfig {
	if c.Iterations == 0 {
		c.Iterations = 800
	}
	if c.BurnIn == 0 {
		c.BurnIn = c.Iterations / 4
	}
	if c.Leapfrog == 0 {
		c.Leapfrog = 12
	}
	if c.StepSize == 0 {
		c.StepSize = 0.08
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 100
	}
	return c
}

func (c HMCConfig) validate() error {
	if c.Iterations < 1 || c.BurnIn < 0 || c.Leapfrog < 1 || c.StepSize <= 0 || c.Jitter < 0 || c.Jitter > 1 || c.ProgressEvery < 1 {
		return fmt.Errorf("core: invalid HMC config %+v", c)
	}
	return nil
}

// divergenceThreshold is the Hamiltonian error (in nats) beyond which a
// trajectory counts as divergent: the leapfrog integrator has left the
// region where its energy error is bounded, so the proposal is effectively
// always rejected and the step size is too large for the local curvature.
const divergenceThreshold = 50.0

// RunHMC draws samples from the posterior with Hamiltonian Monte Carlo.
func RunHMC(ds *Dataset, prior Prior, cfg HMCConfig, rng *stats.RNG) (*Chain, error) {
	return RunHMCContext(context.Background(), ds, prior, cfg, rng)
}

// RunHMCContext is RunHMC under a context: cancellation is checked once per
// trajectory (never inside one, so a run that completes is bit-identical to
// an uncancelled run), and a cancelled run returns ctx.Err() with no
// partial chain.
func RunHMCContext(ctx context.Context, ds *Dataset, prior Prior, cfg HMCConfig, rng *stats.RNG) (*Chain, error) {
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

	// Initialise from the prior, in θ space.
	betaDist := stats.NewBeta(prior.Alpha, prior.Beta)
	theta := make([]float64, n)
	p := make([]float64, n)
	for i := range theta {
		theta[i] = stats.Logit(clampP(betaDist.Sample(rng)))
	}
	thetaToP(theta, p)
	st := model.NewState(ds, p)
	// stProp is the proposal's scratch state, allocated once and refreshed
	// from st per trajectory (CopyFrom is exact: HMC never updates the
	// incremental caches coordinate-wise, so a copied state always equals a
	// fresh recompute). On accept the two states swap instead of allocating.
	stProp := model.NewState(ds, p)

	grad := make([]float64, n)
	mom := make([]float64, n)
	thetaProp := make([]float64, n)
	pProp := make([]float64, n)

	chain := &Chain{Method: "hmc", Nodes: ds.Nodes()}
	logPost := st.LogPostTheta(prior)

	total := cfg.BurnIn + cfg.Iterations
	// Nil metric handles (no observer) reduce every update to one pointer
	// check — the no-op fast path.
	chainLabel := obs.ChainLabel(cfg.Chain)
	iterCtr := cfg.Obs.Counter(obs.MetricSweeps, "method", "hmc", "chain", chainLabel)
	divCtr := cfg.Obs.Counter(obs.MetricDivergences, "method", "hmc", "chain", chainLabel)
	// Observability-only timing: feeds the sweep-rate gauge and the done
	// log line below, never the samples.
	start := time.Now() //lint:allow determinism
	for iter := 0; iter < total; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Fresh Gaussian momentum; kinetic energy = |m|^2/2.
		kin0 := 0.0
		for i := range mom {
			mom[i] = rng.Norm()
			kin0 += mom[i] * mom[i] / 2
		}
		copy(thetaProp, theta)
		stProp.CopyFrom(st)

		eps := cfg.StepSize * (1 + cfg.Jitter*(2*rng.Float64()-1))
		hmcLeapfrog(stProp, prior, thetaProp, pProp, grad, mom, eps, cfg.Leapfrog)
		kin1 := 0.0
		for i := range mom {
			kin1 += mom[i] * mom[i] / 2
		}
		logPostProp := stProp.LogPostTheta(prior)

		logAlpha := (logPostProp - kin1) - (logPost - kin0)
		chain.Proposed++
		if math.IsNaN(logAlpha) || logAlpha < -divergenceThreshold {
			chain.Divergent++
			divCtr.Inc()
		}
		if logAlpha >= 0 || math.Log(rng.Float64()+1e-300) < logAlpha {
			copy(theta, thetaProp)
			st, stProp = stProp, st
			logPost = logPostProp
			chain.Accepted++
		}
		if iter >= cfg.BurnIn {
			chain.Samples = append(chain.Samples, append([]float64(nil), st.Probabilities()...))
		}
		iterCtr.Inc()
		if cfg.Progress != nil && (iter+1)%cfg.ProgressEvery == 0 && iter+1 < total {
			cfg.Progress(obs.Progress{
				Stage: "hmc", Chain: cfg.Chain, Done: iter + 1, Total: total,
				Accepted: chain.Accepted, Proposed: chain.Proposed,
			})
		}
	}
	if cfg.Obs != nil {
		elapsed := time.Since(start) //lint:allow determinism — observability-only
		cfg.Obs.Gauge(obs.MetricAcceptance, "method", "hmc", "chain", chainLabel).Set(chain.AcceptanceRate())
		if secs := elapsed.Seconds(); secs > 0 {
			cfg.Obs.Gauge(obs.MetricSweepRate, "method", "hmc", "chain", chainLabel).Set(float64(total) / secs)
		}
		cfg.Obs.Log(obs.LevelInfo, "hmc chain done",
			"chain", cfg.Chain, "iterations", total, "retained", chain.Len(),
			"acceptance", chain.AcceptanceRate(), "divergences", chain.Divergent, "elapsed", elapsed)
	}
	if cfg.Progress != nil {
		cfg.Progress(obs.Progress{
			Stage: "hmc", Chain: cfg.Chain, Done: total, Total: total,
			Accepted: chain.Accepted, Proposed: chain.Proposed,
		})
	}
	return chain, nil
}

// thetaToP maps a logit-space position onto the clamped probability
// simplex coordinates the likelihood works in.
//
//lint:hotpath
func thetaToP(theta, p []float64) {
	for i, th := range theta {
		p[i] = clampP(stats.Expit(th))
	}
}

// hmcLeapfrog integrates one trajectory in place — half momentum step,
// steps-1 full position/momentum steps, closing half momentum step —
// leaving the proposal position in thetaProp/pProp/stProp and the final
// momentum in mom. All buffers are caller-owned; the integrator touches
// the likelihood only through the ModelState interface and allocates
// nothing (a contract every model implementation inherits through the
// hotpath resolution of the interface calls).
//
//lint:hotpath
func hmcLeapfrog(stProp ModelState, prior Prior, thetaProp, pProp, grad, mom []float64, eps float64, steps int) {
	stProp.GradLogPostTheta(prior, grad)
	for i := range mom {
		mom[i] += eps / 2 * grad[i]
	}
	for step := 0; step < steps; step++ {
		for i := range thetaProp {
			thetaProp[i] += eps * mom[i]
			// Keep θ in a numerically safe band; expit saturates
			// beyond ±36 anyway.
			if thetaProp[i] > 36 {
				thetaProp[i] = 36
			}
			if thetaProp[i] < -36 {
				thetaProp[i] = -36
			}
		}
		thetaToP(thetaProp, pProp)
		stProp.SetP(pProp)
		stProp.GradLogPostTheta(prior, grad)
		scale := eps
		if step == steps-1 {
			scale = eps / 2
		}
		for i := range mom {
			mom[i] += scale * grad[i]
		}
	}
}
