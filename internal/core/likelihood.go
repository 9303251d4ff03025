package core

import (
	"math"
)

// pEps clamps probabilities away from the boundary so log terms stay
// finite; the samplers never need to represent an exact 0 or 1.
const pEps = 1e-9

func clampP(p float64) float64 {
	if p < pEps {
		return pEps
	}
	if p > 1-pEps {
		return 1 - pEps
	}
	return p
}

// log1mexp computes log(1 - e^x) for x < 0, stable near both ends.
func log1mexp(x float64) float64 {
	if x >= 0 {
		return math.Inf(-1)
	}
	if x > -math.Ln2 {
		return math.Log(-math.Expm1(x))
	}
	return math.Log1p(-math.Exp(x))
}

// likState is the sampler's incremental view of the likelihood: the current
// probability vector and per-positive-path log products, enabling O(paths
// containing i) updates when a single coordinate changes.
//
// missRate implements the explicit measurement-error model the paper
// sketches in § 7.2: with probability missRate a path that truly shows the
// property is recorded as clean (e.g. an RFD suppression that the labeling
// window misses). With Q = Π(1-p_i):
//
//	P(labeled positive) = (1-missRate)·(1-Q)
//	P(labeled negative) = Q + missRate·(1-Q)
//
// missRate = 0 recovers the exact binary-tomography model of § 3.1.
type likState struct {
	ds       *Dataset
	p        []float64
	missRate float64
	// logQ[j] = Σ_{i∈J} log(1-p_i) for every path j (used only when the
	// path is positive, but maintained for all for simplicity).
	logQ []float64
}

func newLikState(ds *Dataset, p []float64, missRate float64) *likState {
	st := &likState{ds: ds, p: append([]float64(nil), p...), missRate: missRate}
	for i := range st.p {
		st.p[i] = clampP(st.p[i])
	}
	st.logQ = make([]float64, len(ds.paths))
	st.Recompute()
	return st
}

// logNegTerm is the log-probability of observing a negative label on a
// path with log no-show probability logQ.
func (st *likState) logNegTerm(logQ float64) float64 {
	if st.missRate <= 0 {
		return logQ
	}
	// log((1-m)·Q + m); Q ∈ (0,1] so the linear-space sum is safe.
	return math.Log((1-st.missRate)*math.Exp(logQ) + st.missRate)
}

// logPosTerm is the log-probability of observing a positive label.
func (st *likState) logPosTerm(logQ float64) float64 {
	t := log1mexp(logQ)
	if st.missRate > 0 {
		t += math.Log1p(-st.missRate)
	}
	return t
}

// CopyFrom makes st an exact copy of src's mutable state. st and src
// must come from the same model's NewState over the same dataset (the
// HMC sampler's two swap states do by construction); the ModelState
// contract makes anything else a programming error, so the assertion
// panics.
//
//lint:hotpath
func (st *likState) CopyFrom(src ModelState) {
	other := src.(*likState)
	copy(st.p, other.p)
	copy(st.logQ, other.logQ)
}

// Probabilities returns the state's own probability vector (mutated in
// place by Apply/SetP; callers must not modify it).
//
//lint:hotpath
func (st *likState) Probabilities() []float64 { return st.p }

// SetP replaces the whole probability vector and rebuilds the caches;
// used by the HMC leapfrog, which moves all coordinates at once.
//
//lint:hotpath
func (st *likState) SetP(p []float64) {
	for i := range p {
		st.p[i] = clampP(p[i])
	}
	st.Recompute()
}

// Recompute rebuilds the logQ cache from scratch (called initially and
// periodically to cancel numerical drift).
//
//lint:hotpath
func (st *likState) Recompute() {
	for j, path := range st.ds.paths {
		s := 0.0
		for _, i := range path.nodes {
			s += math.Log1p(-st.p[i])
		}
		st.logQ[j] = s
	}
}

// LogLik returns the full data log-likelihood at the current state.
//
//lint:hotpath
func (st *likState) LogLik() float64 {
	total := 0.0
	for j, path := range st.ds.paths {
		if path.positive {
			total += path.weight * st.logPosTerm(st.logQ[j])
		} else {
			total += path.weight * st.logNegTerm(st.logQ[j])
		}
	}
	return total
}

// DeltaFor returns the change in log-likelihood if node i moved from its
// current value to pNew, without mutating state.
//
//lint:hotpath
func (st *likState) DeltaFor(i int, pNew float64) float64 {
	pNew = clampP(pNew)
	pOld := st.p[i]
	dLogQ := math.Log1p(-pNew) - math.Log1p(-pOld)
	delta := 0.0
	for _, j := range st.ds.nodePaths[i] {
		path := st.ds.paths[j]
		if path.positive {
			delta += path.weight * (st.logPosTerm(st.logQ[j]+dLogQ) - st.logPosTerm(st.logQ[j]))
		} else {
			delta += path.weight * (st.logNegTerm(st.logQ[j]+dLogQ) - st.logNegTerm(st.logQ[j]))
		}
	}
	return delta
}

// Apply commits a new value for node i, updating the caches.
//
//lint:hotpath
func (st *likState) Apply(i int, pNew float64) {
	pNew = clampP(pNew)
	dLogQ := math.Log1p(-pNew) - math.Log1p(-st.p[i])
	for _, j := range st.ds.nodePaths[i] {
		st.logQ[j] += dLogQ
	}
	st.p[i] = pNew
}

// LogLik computes the data log-likelihood of probability vector p (indexed
// like ds.Nodes()) from scratch. Exposed for tests and ablations comparing
// log-space and linear-space evaluation.
func LogLik(ds *Dataset, p []float64) float64 {
	st := newLikState(ds, p, 0)
	return st.LogLik()
}

// LinearLik computes the likelihood in linear space (the naive translation
// of Eq. 5). It underflows for realistic datasets — the log-space ablation
// bench demonstrates exactly that — and exists only for comparison.
func LinearLik(ds *Dataset, p []float64) float64 {
	total := 1.0
	for _, path := range ds.paths {
		q := 1.0
		for _, i := range path.nodes {
			q *= 1 - clampP(p[i])
		}
		if path.positive {
			total *= math.Pow(1-q, path.weight)
		} else {
			total *= math.Pow(q, path.weight)
		}
	}
	return total
}

// GradLogPostTheta fills grad with the gradient of the log posterior in
// logit space θ (p = expit(θ)), including the Beta(prior) term and the
// change-of-variables Jacobian. Used by the HMC sampler.
//
// Derivation (per node i, with Q_j = Π_{k∈J_j}(1-p_k)):
//
//	∂/∂θ_i log prior+jac = a(1-p_i) - b·p_i
//	negative path j ∋ i:  ∂/∂θ_i w_j log Q_j      = -w_j p_i
//	positive path j ∋ i:  ∂/∂θ_i w_j log(1-Q_j)   =  w_j p_i Q_j/(1-Q_j)
//
//lint:hotpath
func (st *likState) GradLogPostTheta(prior Prior, grad []float64) {
	for i := range grad {
		p := st.p[i]
		grad[i] = prior.Alpha*(1-p) - prior.Beta*p
	}
	for j, path := range st.ds.paths {
		q := math.Exp(st.logQ[j])
		if path.positive {
			// d/dθ_i w log[(1-m)(1-Q)] = w p_i Q/(1-Q): the error factor
			// (1-m) is constant in p and drops out of the gradient.
			factor := q / (1 - q)
			if math.IsInf(factor, 1) || math.IsNaN(factor) {
				// Q ≈ 1: the positive observation is nearly impossible;
				// push mass up with a large but finite factor.
				factor = 1 / pEps
			}
			for _, i := range path.nodes {
				grad[i] += path.weight * st.p[i] * factor
			}
		} else if st.missRate > 0 {
			// d/dθ_i w log[(1-m)Q + m] = -w p_i (1-m)Q / ((1-m)Q + m).
			factor := (1 - st.missRate) * q / ((1-st.missRate)*q + st.missRate)
			for _, i := range path.nodes {
				grad[i] -= path.weight * st.p[i] * factor
			}
		} else {
			for _, i := range path.nodes {
				grad[i] -= path.weight * st.p[i]
			}
		}
	}
}

// LogPostTheta returns the log posterior density in θ space at the current
// state: logLik + Σ_i [a·log p_i + b·log(1-p_i)] (Beta prior + Jacobian,
// dropping the constant -log B(a,b)).
//
//lint:hotpath
func (st *likState) LogPostTheta(prior Prior) float64 {
	lp := st.LogLik()
	for _, p := range st.p {
		lp += prior.Alpha*math.Log(p) + prior.Beta*math.Log(1-p)
	}
	return lp
}

func logPriorAt(prior Prior, p float64) float64 {
	p = clampP(p)
	return (prior.Alpha-1)*math.Log(p) + (prior.Beta-1)*math.Log(1-p)
}
