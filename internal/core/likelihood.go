package core

import (
	"math"

	"because/internal/stats"
)

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
// other write to the state (a leapfrog step, Recompute, an Apply of any
// other move) only invalidates the cache.
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

	factor []float64 // each path's gradient factor, scratch of the leapfrog path pass
}

// newLikState compiles m's likelihood state over ds at p (copied and
// clamped). Each chain gets its own state; states are never shared
// across goroutines.
func newLikState(ds *Dataset, p []float64, m Model) *likState {
	deg := 0
	for i := range ds.nodes {
		deg = max(deg, len(ds.pathsOf(i)))
	}
	st := &likState{
		ds: ds, p: make([]float64, len(p)), lq: make([]float64, len(p)), logQ: make([]float64, ds.NumPaths()),
		term: make([]float64, ds.NumPaths()), cand: make([]float64, deg), factor: make([]float64, ds.NumPaths()),
		miss: m.MissRate, logBG: math.Log1p(-m.BackgroundRate),
	}
	for i := range p {
		st.p[i] = clampProb(p[i])
		st.lq[i] = math.Log1p(-st.p[i])
	}
	st.Recompute()
	return st
}

// Probabilities returns the state's own probability vector in dataset
// index order (mutated in place by Apply and the leapfrog passes; callers
// must not modify it).
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

// Recompute rebuilds the logQ cache from lq (called initially and
// periodically to cancel the drift of incremental Apply updates) and
// invalidates the term cache, whose terms were taken at the old sums.
//
//lint:hotpath
func (st *likState) Recompute() {
	for j := range st.logQ {
		s := 0.0
		for _, i := range st.ds.pathNodesOf(j) {
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
	paths := st.ds.pathsOf(i)
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

// pathTerm is the log-probability of a path's label at modeled log
// product logQ:
//
//	positive: log[(1-m)·(1 - (1-β)Q)]
//	negative: log[m + (1-m)·(1-β)Q]
//
// At m = 0 the negative term is exactly log((1-β)Q); otherwise the
// linear-space sum is safe, (1-β)Q ∈ (0,1].
func (st *likState) pathTerm(positive bool, logQ float64) float64 {
	t := logQ + st.logBG
	if positive {
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
	for j, logQ := range st.logQ {
		total += st.ds.weight[j] * st.pathTerm(st.ds.positive[j], logQ)
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
			st.term[j] = st.pathTerm(st.ds.positive[j], logQ)
		}
		st.termsOK = true
	}
	st.pendI, st.pendP = i, pNew
	dLogQ := math.Log1p(-pNew) - st.lq[i]
	delta := 0.0
	for k, j := range st.ds.pathsOf(i) {
		t := st.pathTerm(st.ds.positive[j], st.logQ[j]+dLogQ)
		st.cand[k] = t
		delta += st.ds.weight[j] * (t - st.term[j])
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
	for j, w := range ds.weight {
		q := 1.0
		for _, i := range ds.pathNodesOf(j) {
			q *= 1 - clampProb(p[i])
		}
		if ds.positive[j] {
			total *= math.Pow(1-q, w)
		} else {
			total *= math.Pow(q, w)
		}
	}
	return total
}

// stepNodes is the node pass of one HMC leapfrog step: the momentum step
// mom += kick·gPrev and the position step θ += eps·mom (θ kept in ±36,
// where expit saturates anyway), then p = clampProb(expit θ), then
// lq = log1p(-p) and the prior-plus-Jacobian term a(1-p) - b·p that
// starts grad. gPrev may alias grad: the first loop reads it before the
// last one writes it. The two transcendental calls sit in loops of their
// own, where successive calls overlap; sharing one loop body chains each
// node's expit into its log1p and measured slower. The path pass
// stepPaths then completes logQ and grad.
//
//lint:hotpath
func (st *likState) stepNodes(prior Prior, theta, mom, gPrev, grad []float64, kick, eps float64) {
	for i, th := range theta {
		mom[i] += kick * gPrev[i]
		th += eps * mom[i]
		if th > 36 {
			th = 36
		}
		if th < -36 {
			th = -36
		}
		theta[i] = th
	}
	p, lq := st.p, st.lq
	for i, th := range theta {
		p[i] = clampProb(stats.Expit(th))
	}
	for i, pi := range p {
		lq[i] = math.Log1p(-pi)
		grad[i] = prior.Alpha*(1-pi) - prior.Beta*pi
	}
}

// stepPaths is the path pass of one HMC leapfrog step, after stepNodes.
// For each path it sums logQ[j] from lq in path order and takes the
// path's gradient factor; then each node adds w_j·p_i·factor_j over its
// paths to the gradient of the log posterior in logit space θ (p =
// expit(θ)). Node i's paths are listed in ascending order, so it adds the
// same products in the same order as scattering each path's factor over
// its nodes would, without a second loop of the path's unpredictable
// length. It invalidates the term cache, whose terms were taken at the
// old sums.
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
func (st *likState) stepPaths(grad []float64) {
	// Locals, not fields: the compiler reloads a field after every store.
	ds, lq, logQ, factor := st.ds, st.lq, st.logQ, st.factor
	logBG, miss := st.logBG, st.miss
	for j := range logQ {
		s := 0.0
		for _, i := range ds.pathNodesOf(j) {
			s += lq[i]
		}
		logQ[j] = s
		f := -1.0
		if ds.positive[j] {
			f = posGradFactor(math.Exp(s + logBG))
		} else if miss > 0 {
			q := math.Exp(s + logBG)
			f = -((1 - miss) * q / ((1-miss)*q + miss))
		}
		factor[j] = f
	}
	for i, pi := range st.p {
		g := grad[i]
		for _, j := range ds.pathsOf(i) {
			g += ds.weight[j] * pi * factor[j]
		}
		grad[i] = g
	}
	st.invalidate()
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
