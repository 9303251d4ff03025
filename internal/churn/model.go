// Package churn implements the second observation model of the BeCAUSe
// engine: binary path-change tomography in the spirit of "A Churn for the
// Better" (PAPERS.md), which localises the ASes responsible for route
// instability from per-path churn binaries the same way the paper's RFD
// model localises dampers from beacon signatures.
//
// The observable is weaker than an RFD signature — "did this path change
// at all during an observation window" — so the likelihood carries an
// explicit background-churn term: even with no responsible AS on the
// path, a path churns with probability BackgroundRate (maintenance,
// traffic engineering, unrelated flaps). With Q = Π_{i∈J}(1-p_i), miss
// rate m and background rate β:
//
//	P(labeled churned) = (1-m)·(1 - (1-β)·Q)
//	P(labeled stable)  = m + (1-m)·(1-β)·Q
//
// β = 0, m = 0 recovers the exact § 3.1 tomography likelihood of the
// default RFD model. The package implements core.ObservationModel; its
// kernels are //lint:hotpath (zero allocations, pinned by the benchmark
// trajectory) and the package sits on the becauselint determinism path.
package churn

import (
	"fmt"
	"math"

	"because/internal/core"
)

// Model is the churn observation model: core.RFDModel's likelihood with
// an additional per-path background-churn probability. The zero value is
// valid (and then exactly the § 3.1 likelihood under another name — use
// the default model instead in that case, so cache keys stay honest).
type Model struct {
	// BackgroundRate is β: the probability that a path churns for reasons
	// unrelated to any modeled AS. It absorbs the false positives that a
	// weak "any path change" labeling necessarily produces.
	BackgroundRate float64
	// MissRate is m: the probability that a truly-churned path is recorded
	// stable (the observation window missed the change).
	MissRate float64
}

// Name returns "churn" — the wire identifier carried on results and keyed
// into becaused's cache.
func (Model) Name() string { return "churn" }

// Validate bounds both rates to [0, 1) (NaN included in the rejects).
func (m Model) Validate() error {
	if !(m.BackgroundRate >= 0 && m.BackgroundRate < 1) {
		return fmt.Errorf("churn: background rate %g outside [0, 1)", m.BackgroundRate)
	}
	if !(m.MissRate >= 0 && m.MissRate < 1) {
		return fmt.Errorf("churn: miss rate %g outside [0, 1)", m.MissRate)
	}
	return nil
}

// NewState compiles one chain's incremental likelihood state.
func (m Model) NewState(ds *core.Dataset, p []float64) core.ModelState {
	st := &state{
		ds:    ds,
		p:     append([]float64(nil), p...),
		miss:  m.MissRate,
		logBG: math.Log1p(-m.BackgroundRate),
		logQ:  make([]float64, ds.NumPaths()),
	}
	for i := range st.p {
		st.p[i] = core.ClampProb(st.p[i])
	}
	st.Recompute()
	return st
}

// state is the sampler's incremental view of the churn likelihood: the
// mirror of the default model's likState with every per-path log product
// shifted by log(1-β). logQ[j] caches Σ_{i∈J} log(1-p_i); the effective
// log no-churn probability of path j is logQ[j] + logBG.
type state struct {
	ds    *core.Dataset
	p     []float64
	miss  float64
	logBG float64 // log(1-β), folded into every per-path term
	logQ  []float64
}

// logStableTerm is the log-probability of observing a stable label on a
// path with modeled log no-show probability logQ.
func (st *state) logStableTerm(logQ float64) float64 {
	t := logQ + st.logBG
	if st.miss <= 0 {
		return t
	}
	// log((1-m)·(1-β)Q + m); the linear-space sum is safe, (1-β)Q ∈ (0,1].
	return math.Log((1-st.miss)*math.Exp(t) + st.miss)
}

// logChurnTerm is the log-probability of observing a churned label.
func (st *state) logChurnTerm(logQ float64) float64 {
	t := core.Log1mExp(logQ + st.logBG)
	if st.miss > 0 {
		t += math.Log1p(-st.miss)
	}
	return t
}

// CopyFrom makes st an exact copy of src's mutable state. Both states
// must come from the same Model's NewState over the same dataset (the
// HMC sampler's two swap states do by construction).
//
//lint:hotpath
func (st *state) CopyFrom(src core.ModelState) {
	other := src.(*state)
	copy(st.p, other.p)
	copy(st.logQ, other.logQ)
}

// Probabilities returns the state's own probability vector (mutated in
// place by Apply/SetP; callers must not modify it).
//
//lint:hotpath
func (st *state) Probabilities() []float64 { return st.p }

// SetP replaces the whole probability vector and rebuilds the caches.
//
//lint:hotpath
func (st *state) SetP(p []float64) {
	for i := range p {
		st.p[i] = core.ClampProb(p[i])
	}
	st.Recompute()
}

// Recompute rebuilds the logQ cache from scratch, cancelling numeric
// drift accumulated by incremental Apply updates.
//
//lint:hotpath
func (st *state) Recompute() {
	for j := range st.logQ {
		s := 0.0
		for _, i := range st.ds.PathNodes(j) {
			s += math.Log1p(-st.p[i])
		}
		st.logQ[j] = s
	}
}

// LogLik returns the full data log-likelihood at the current state.
//
//lint:hotpath
func (st *state) LogLik() float64 {
	total := 0.0
	for j := range st.logQ {
		if st.ds.PathPositive(j) {
			total += st.ds.PathWeight(j) * st.logChurnTerm(st.logQ[j])
		} else {
			total += st.ds.PathWeight(j) * st.logStableTerm(st.logQ[j])
		}
	}
	return total
}

// DeltaFor returns the change in log-likelihood if node i moved from its
// current value to pNew, without mutating state.
//
//lint:hotpath
func (st *state) DeltaFor(i int, pNew float64) float64 {
	pNew = core.ClampProb(pNew)
	dLogQ := math.Log1p(-pNew) - math.Log1p(-st.p[i])
	delta := 0.0
	for _, j := range st.ds.NodePathIndices(i) {
		w := st.ds.PathWeight(j)
		if st.ds.PathPositive(j) {
			delta += w * (st.logChurnTerm(st.logQ[j]+dLogQ) - st.logChurnTerm(st.logQ[j]))
		} else {
			delta += w * (st.logStableTerm(st.logQ[j]+dLogQ) - st.logStableTerm(st.logQ[j]))
		}
	}
	return delta
}

// Apply commits a new value for node i, updating the caches.
//
//lint:hotpath
func (st *state) Apply(i int, pNew float64) {
	pNew = core.ClampProb(pNew)
	dLogQ := math.Log1p(-pNew) - math.Log1p(-st.p[i])
	for _, j := range st.ds.NodePathIndices(i) {
		st.logQ[j] += dLogQ
	}
	st.p[i] = pNew
}

// GradLogPostTheta fills grad with the gradient of the log posterior in
// logit space θ (p = expit(θ)), including the Beta(prior) term and the
// change-of-variables Jacobian.
//
// With Q'_j = (1-β)·Π_{k∈J_j}(1-p_k) and ∂ log Q'_j/∂θ_i = -p_i:
//
//	∂/∂θ_i log prior+jac                       = a(1-p_i) - b·p_i
//	churned path j ∋ i: w log[(1-m)(1-Q')]     → +w p_i Q'/(1-Q')
//	stable  path j ∋ i: w log[m + (1-m)Q']     → -w p_i (1-m)Q'/((1-m)Q'+m)
//
// (the stable factor degenerates to 1 at m = 0, recovering -w·p_i).
//
//lint:hotpath
func (st *state) GradLogPostTheta(prior core.Prior, grad []float64) {
	for i := range grad {
		p := st.p[i]
		grad[i] = prior.Alpha*(1-p) - prior.Beta*p
	}
	for j := range st.logQ {
		q := math.Exp(st.logQ[j] + st.logBG)
		w := st.ds.PathWeight(j)
		if st.ds.PathPositive(j) {
			factor := q / (1 - q)
			if math.IsInf(factor, 1) || math.IsNaN(factor) {
				// Q' ≈ 1: the churned observation is nearly impossible;
				// push mass up with a large but finite factor (the same
				// guard the default model uses).
				factor = 1 / core.ClampProb(0)
			}
			for _, i := range st.ds.PathNodes(j) {
				grad[i] += w * st.p[i] * factor
			}
		} else {
			factor := (1 - st.miss) * q / ((1-st.miss)*q + st.miss)
			for _, i := range st.ds.PathNodes(j) {
				grad[i] -= w * st.p[i] * factor
			}
		}
	}
}

// LogPostTheta returns the log posterior density in θ space at the
// current state: LogLik + Σ_i [a·log p_i + b·log(1-p_i)] (Beta prior +
// Jacobian, dropping the constant -log B(a,b)).
//
//lint:hotpath
func (st *state) LogPostTheta(prior core.Prior) float64 {
	lp := st.LogLik()
	for _, p := range st.p {
		lp += prior.Alpha*math.Log(p) + prior.Beta*math.Log(1-p)
	}
	return lp
}
