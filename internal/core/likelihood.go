package core

import "math"

// pEps clamps probabilities away from the boundary so log terms stay
// finite; the samplers never need to represent an exact 0 or 1.
const pEps = 1e-9

// clampProb clamps a probability into the open unit interval the
// kernels work in.
func clampProb(p float64) float64 {
	if p < pEps {
		return pEps
	}
	if p > 1-pEps {
		return 1 - pEps
	}
	return p
}

// log1mExp computes log(1 - e^x) for x < 0, stable near both ends: the
// kernel that turns a log no-show probability into a log positive one.
func log1mExp(x float64) float64 {
	if x >= 0 {
		return math.Inf(-1)
	}
	if x > -math.Ln2 {
		return math.Log(-math.Expm1(x))
	}
	return math.Log1p(-math.Exp(x))
}

// posGradFactor returns Q/(1-Q), the gradient factor of a positive
// path's log(1-Q) term. At Q ≈ 1 the observation is nearly impossible and
// the ratio overflows; a large but finite 1/eps then pushes mass up.
//
//lint:hotpath
func posGradFactor(q float64) float64 {
	factor := q / (1 - q)
	if math.IsInf(factor, 1) || math.IsNaN(factor) {
		return 1 / pEps
	}
	return factor
}

// likState is one chain's incremental view of a Model's likelihood: the
// probability vector p, the per-node lq[i] = log(1-p_i) and the per-path
// logQ[j] = Σ_{i∈J} lq[i], updated in O(paths containing i) when one
// coordinate moves. lq is an invariant, not scratch: every write to p[i]
// writes lq[i], so each log1p runs once per value.
//
// Every path term and gradient factor is evaluated at logQ[j] + logBG,
// where logBG = log(1-β) is the background rate's shift of log Q. Under
// the rfd model β = 0 and logBG is +0.0; the addition is then exact,
// because logQ[j] < 0 always (p is clamped), so the rfd draws keep their
// bits.
//
// The state also caches each path's current log-likelihood term: term[j]
// is the term at logQ[j] whenever termsOK holds. DeltaFor leaves the
// candidate terms of one move in cand, and an Apply of exactly that move
// commits them, so an MH proposal evaluates each path's term once; every
// other write to the state (SetP, Recompute, an Apply of any other move)
// only invalidates the cache.
//
// The state upholds three invariants (DESIGN.md): every method is a pure
// function of the vector and the dataset; after any sequence of Apply
// calls, LogLik and DeltaFor agree with a fresh state's up to float drift,
// which Recompute cancels on the samplers' fixed cadence; and no method
// allocates.
type likState struct {
	ds   *Dataset
	p    []float64
	lq   []float64
	logQ []float64

	term    []float64
	termsOK bool
	cand    []float64 // candidate terms of the pending move, sized to the largest node degree
	pendI   int       // node of the pending move, -1 when none is pending
	pendP   float64   // its clamped value

	miss  float64 // m, the miss rate
	logBG float64 // log(1-β), folded into every path term and gradient factor
}

// newLikState compiles m's likelihood state over ds at p (copied and
// clamped). Each chain gets its own state; states are never shared
// across goroutines.
func newLikState(ds *Dataset, p []float64, m Model) *likState {
	deg := 0
	for _, paths := range ds.nodePaths {
		deg = max(deg, len(paths))
	}
	st := &likState{
		ds: ds, p: make([]float64, len(p)), lq: make([]float64, len(p)), logQ: make([]float64, len(ds.paths)),
		term: make([]float64, len(ds.paths)), cand: make([]float64, deg),
		miss: m.MissRate, logBG: math.Log1p(-m.BackgroundRate),
	}
	st.SetP(p)
	return st
}

// Probabilities returns the state's own probability vector in dataset
// index order (mutated in place by Apply/SetP; callers must not modify
// it).
//
//lint:hotpath
func (st *likState) Probabilities() []float64 { return st.p }

// invalidate marks the term cache stale and drops any pending move.
//
//lint:hotpath
func (st *likState) invalidate() {
	st.termsOK = false
	st.pendI = -1
}

// SetP replaces the whole probability vector and rebuilds the caches;
// used by the HMC leapfrog, which moves all coordinates at once. It
// overwrites every value the state holds, so the result does not depend
// on what the state held before: HMC starts each trajectory on a scratch
// state without copying the current one into it.
//
//lint:hotpath
func (st *likState) SetP(p []float64) {
	for i := range p {
		st.p[i] = clampProb(p[i])
		st.lq[i] = math.Log1p(-st.p[i])
	}
	st.Recompute()
}

// Recompute rebuilds the logQ cache from lq (called initially and
// periodically to cancel the drift of incremental Apply updates) and
// invalidates the term cache, whose terms were taken at the old sums.
//
//lint:hotpath
func (st *likState) Recompute() {
	for j, path := range st.ds.paths {
		s := 0.0
		for _, i := range path.nodes {
			s += st.lq[i]
		}
		st.logQ[j] = s
	}
	st.invalidate()
}

// Apply commits a new value for node i, updating the caches. If (i, pNew)
// is the pending move of the last DeltaFor, the candidate terms become
// the current ones: they were taken at logQ[j] + dLogQ, bitwise the sums
// written here. Any other move invalidates the term cache.
//
//lint:hotpath
func (st *likState) Apply(i int, pNew float64) {
	pNew = clampProb(pNew)
	lq := math.Log1p(-pNew)
	dLogQ := lq - st.lq[i]
	paths := st.ds.nodePaths[i]
	for _, j := range paths {
		st.logQ[j] += dLogQ
	}
	st.p[i] = pNew
	st.lq[i] = lq
	if st.pendI != i || st.pendP != pNew {
		st.invalidate()
		return
	}
	for k, j := range paths {
		st.term[j] = st.cand[k]
	}
	st.pendI = -1
}

// pathTerm is the log-probability of path j's label at modeled log
// product logQ:
//
//	positive: log[(1-m)·(1 - (1-β)Q)]
//	negative: log[m + (1-m)·(1-β)Q]
//
// At m = 0 the negative term is exactly log((1-β)Q); otherwise the
// linear-space sum is safe, (1-β)Q ∈ (0,1].
func (st *likState) pathTerm(j int, logQ float64) float64 {
	t := logQ + st.logBG
	if st.ds.paths[j].positive {
		t = log1mExp(t)
		if st.miss > 0 {
			t += math.Log1p(-st.miss)
		}
		return t
	}
	if st.miss <= 0 {
		return t
	}
	return math.Log((1-st.miss)*math.Exp(t) + st.miss)
}

// LogLik returns the full data log-likelihood at the current state.
//
//lint:hotpath
func (st *likState) LogLik() float64 {
	total := 0.0
	for j, path := range st.ds.paths {
		total += path.weight * st.pathTerm(j, st.logQ[j])
	}
	return total
}

// DeltaFor returns the change in log-likelihood if node i moved from its
// current value to pNew, without moving the state. Every logQ[j] of a
// path through i would shift by log(1-pNew) - lq[i]. It refills a stale
// term cache, and it leaves the candidate terms in cand, one slot per
// path of node i, for an Apply of the same move.
//
//lint:hotpath
func (st *likState) DeltaFor(i int, pNew float64) float64 {
	pNew = clampProb(pNew)
	if !st.termsOK {
		for j, logQ := range st.logQ {
			st.term[j] = st.pathTerm(j, logQ)
		}
		st.termsOK = true
	}
	st.pendI, st.pendP = i, pNew
	dLogQ := math.Log1p(-pNew) - st.lq[i]
	delta := 0.0
	for k, j := range st.ds.nodePaths[i] {
		t := st.pathTerm(j, st.logQ[j]+dLogQ)
		st.cand[k] = t
		delta += st.ds.paths[j].weight * (t - st.term[j])
	}
	return delta
}

// LogLik computes the data log-likelihood of probability vector p (indexed
// like ds.Nodes()) from scratch. Exposed for tests and ablations comparing
// log-space and linear-space evaluation.
//
//lint:allow deadcode test oracle: the from-scratch likelihood the incremental state is checked against
func LogLik(ds *Dataset, p []float64) float64 {
	return newLikState(ds, p, Model{}).LogLik()
}

// LinearLik computes the likelihood in linear space (the naive translation
// of Eq. 5). It underflows for realistic datasets — the log-space ablation
// bench demonstrates exactly that — and exists only for comparison.
//
//lint:allow deadcode test oracle: the linear-space ablation
func LinearLik(ds *Dataset, p []float64) float64 {
	total := 1.0
	for _, path := range ds.paths {
		q := 1.0
		for _, i := range path.nodes {
			q *= 1 - clampProb(p[i])
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
// Derivation (per node i, with Q'_j = (1-β)·Π_{k∈J_j}(1-p_k) and
// ∂ log Q'_j/∂θ_i = -p_i):
//
//	∂/∂θ_i log prior+jac                    = a(1-p_i) - b·p_i
//	positive path j ∋ i: w log[(1-m)(1-Q')] → +w p_i Q'/(1-Q')
//	negative path j ∋ i: w log[m + (1-m)Q'] → -w p_i (1-m)Q'/((1-m)Q'+m)
//
// The error factor (1-m) of a positive path is constant in p and drops
// out. At m = 0 the negative factor is exactly 1 and Q' is not
// evaluated: the ratio form would be Q'/Q', which is NaN once Q'
// underflows to 0 on a long path of near-certain ASes.
//
//lint:hotpath
func (st *likState) GradLogPostTheta(prior Prior, grad []float64) {
	for i := range grad {
		p := st.p[i]
		grad[i] = prior.Alpha*(1-p) - prior.Beta*p
	}
	for j := range st.ds.paths {
		path := &st.ds.paths[j]
		factor := -1.0
		if path.positive {
			factor = posGradFactor(math.Exp(st.logQ[j] + st.logBG))
		} else if st.miss > 0 {
			q := math.Exp(st.logQ[j] + st.logBG)
			factor = -((1 - st.miss) * q / ((1-st.miss)*q + st.miss))
		}
		for _, i := range path.nodes {
			grad[i] += path.weight * st.p[i] * factor
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
	p = clampProb(p)
	return (prior.Alpha-1)*math.Log(p) + (prior.Beta-1)*math.Log(1-p)
}
