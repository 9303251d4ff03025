package core

import (
	"fmt"
	"math"

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
}

// hmcJitter randomises the per-trajectory step size by ±hmcJitter·StepSize
// to avoid resonance.
const hmcJitter = 0.2

// divergenceThreshold is the Hamiltonian error (in nats) beyond which a
// trajectory counts as divergent: the leapfrog integrator has left the
// region where its energy error is bounded, so the proposal is effectively
// always rejected and the step size is too large for the local curvature.
const divergenceThreshold = 50.0

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
	return c
}

func (c HMCConfig) schedule() (string, int, int, error) {
	c = c.withDefaults()
	switch {
	case c.Iterations < 1:
		return "", 0, 0, fmt.Errorf("core: HMCConfig.Iterations must be ≥ 1, got %d", c.Iterations)
	case c.BurnIn < 0:
		return "", 0, 0, fmt.Errorf("core: HMCConfig.BurnIn must be ≥ 0, got %d", c.BurnIn)
	case c.Leapfrog < 1:
		return "", 0, 0, fmt.Errorf("core: HMCConfig.Leapfrog must be ≥ 1, got %d", c.Leapfrog)
	case c.StepSize <= 0:
		return "", 0, 0, fmt.Errorf("core: HMCConfig.StepSize must be > 0, got %g", c.StepSize)
	}
	return "hmc", c.BurnIn, c.Iterations, nil
}

func (c HMCConfig) start(model Model, ds *Dataset, prior Prior, p0 []float64, o *obs.Observer, chain string) kernel {
	c = c.withDefaults()
	n := len(p0)
	theta := make([]float64, n)
	for i, pi := range p0 {
		theta[i] = stats.Logit(pi)
	}
	// pProp doubles as the start position's p buffer: newLikState copies
	// it, and every leapfrog step overwrites it before reading.
	pProp := make([]float64, n)
	thetaToP(theta, pProp)
	st := newLikState(ds, pProp, model)
	k := &hmcKernel{
		st: st,
		// stProp is the proposal's scratch state, allocated once; a
		// trajectory's first leapfrog SetP overwrites everything it
		// holds, so it needs no refresh from st. On accept the two
		// states swap instead of allocating.
		stProp:      newLikState(ds, pProp, model),
		prior:       prior,
		theta:       theta,
		thetaProp:   make([]float64, n),
		pProp:       pProp,
		grad:        make([]float64, n),
		gradProp:    make([]float64, n),
		mom:         make([]float64, n),
		logPost:     st.LogPostTheta(prior),
		stepSize:    c.StepSize,
		leapfrog:    c.Leapfrog,
		divergences: o.Counter(obs.MetricDivergences, "method", "hmc", "chain", chain),
	}
	st.GradLogPostTheta(prior, k.grad)
	return k
}

// hmcKernel is the HMC transition: one jittered leapfrog trajectory and
// its Metropolis correction per step. grad is the log-posterior gradient
// at theta: computed once at the start, then taken over from each
// accepted trajectory's final step, which evaluated it at the proposal.
type hmcKernel struct {
	st, stProp                                   *likState
	prior                                        Prior
	theta, thetaProp, pProp, grad, gradProp, mom []float64
	logPost                                      float64 // log posterior at theta
	stepSize                                     float64
	leapfrog                                     int
	divergences                                  *obs.Counter
}

func (k *hmcKernel) step(c *Chain, _ int, rng *stats.RNG) {
	mom := k.mom
	// Fresh Gaussian momentum; kinetic energy = |m|^2/2.
	kin0 := 0.0
	for i := range mom {
		mom[i] = rng.Norm()
		kin0 += mom[i] * mom[i] / 2
	}
	copy(k.thetaProp, k.theta)

	eps := k.stepSize * (1 + hmcJitter*(2*rng.Float64()-1))
	hmcLeapfrog(k.stProp, k.prior, k.thetaProp, k.pProp, k.grad, k.gradProp, mom, eps, k.leapfrog)
	kin1 := 0.0
	for i := range mom {
		kin1 += mom[i] * mom[i] / 2
	}
	logPostProp := k.stProp.LogPostTheta(k.prior)

	logAlpha := (logPostProp - kin1) - (k.logPost - kin0)
	c.Proposed++
	if math.IsNaN(logAlpha) || logAlpha < -divergenceThreshold {
		c.Divergent++
		k.divergences.Inc()
	}
	if logAlpha >= 0 || math.Log(rng.Float64()+1e-300) < logAlpha {
		copy(k.theta, k.thetaProp)
		k.st, k.stProp = k.stProp, k.st
		k.grad, k.gradProp = k.gradProp, k.grad
		k.logPost = logPostProp
		c.Accepted++
	}
}

func (k *hmcKernel) state() *likState { return k.st }

// thetaToP maps a logit-space position onto the clamped probability
// simplex coordinates the likelihood works in.
//
//lint:hotpath
func thetaToP(theta, p []float64) {
	for i, th := range theta {
		p[i] = clampProb(stats.Expit(th))
	}
}

// hmcLeapfrog integrates one trajectory in place — half momentum step,
// steps-1 full position/momentum steps, closing half momentum step —
// from the start gradient grad0, leaving the proposal position in
// thetaProp/pProp/stProp, its gradient in grad and the final momentum in
// mom. Every step begins with SetP, which overwrites all of stProp, so
// stProp may hold any earlier state on entry. All buffers are
// caller-owned; the integrator allocates nothing.
//
//lint:hotpath
func hmcLeapfrog(stProp *likState, prior Prior, thetaProp, pProp, grad0, grad, mom []float64, eps float64, steps int) {
	for i := range mom {
		mom[i] += eps / 2 * grad0[i]
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
