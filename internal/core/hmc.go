package core

import (
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

func (c HMCConfig) schedule() (string, int, int) { return "hmc", c.BurnIn, c.Iterations }

func (c HMCConfig) start(model Model, ds *Dataset, prior Prior, p0 []float64, o *obs.Observer, chain string) kernel {
	n := len(p0)
	theta := make([]float64, n)
	for i, pi := range p0 {
		theta[i] = stats.Logit(pi)
	}
	k := &hmcKernel{
		st: newLikState(ds, p0, model),
		// stProp is the proposal's scratch state, allocated once; a
		// trajectory's first leapfrog step overwrites everything it
		// holds, so it needs no refresh from st. On accept the two
		// states swap instead of allocating.
		stProp:      newLikState(ds, p0, model),
		prior:       prior,
		theta:       theta,
		thetaProp:   make([]float64, n),
		grad:        make([]float64, n),
		gradProp:    make([]float64, n),
		mom:         make([]float64, n),
		stepSize:    c.StepSize,
		leapfrog:    c.Leapfrog,
		divergences: o.Counter(obs.MetricDivergences, "method", "hmc", "chain", chain),
	}
	// The start is a leapfrog step of length zero from rest (kick and
	// drift 0, momentum 0): the passes every step runs move the state to
	// θ and leave the log-posterior gradient there in grad.
	k.st.stepNodes(prior, theta, k.mom, k.grad, k.grad, 0, 0)
	k.st.stepPaths(k.grad)
	k.logPost = k.st.LogPostTheta(prior)
	return k
}

// hmcKernel is the HMC transition: one jittered leapfrog trajectory and
// its Metropolis correction per step. grad is the log-posterior gradient
// at theta: computed once at the start, then taken over from each
// accepted trajectory's final step, which evaluated it at the proposal.
type hmcKernel struct {
	st, stProp                            *likState
	prior                                 Prior
	theta, thetaProp, grad, gradProp, mom []float64
	logPost                               float64 // log posterior at theta
	stepSize                              float64
	leapfrog                              int
	divergences                           *obs.Counter
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
	hmcLeapfrog(k.stProp, k.prior, k.thetaProp, k.grad, k.gradProp, mom, eps, k.leapfrog)
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

// hmcLeapfrog integrates one trajectory in place — half momentum step,
// steps-1 full position/momentum steps, closing half momentum step —
// from the start gradient grad0, leaving the proposal position in theta
// and stProp, its gradient in grad and the final momentum in mom. Each
// step is one node pass, which also takes the previous momentum step,
// and one path pass; the node pass overwrites all of stProp, so stProp
// may hold any earlier state on entry. All buffers are caller-owned; the
// integrator allocates nothing.
//
//lint:hotpath
func hmcLeapfrog(stProp *likState, prior Prior, theta, grad0, grad, mom []float64, eps float64, steps int) {
	kick, gPrev := eps/2, grad0
	for step := 0; step < steps; step++ {
		stProp.stepNodes(prior, theta, mom, gPrev, grad, kick, eps)
		stProp.stepPaths(grad)
		kick, gPrev = eps, grad
	}
	for i := range mom {
		mom[i] += eps / 2 * grad[i]
	}
}
