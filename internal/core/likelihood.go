package core

import "math"

// pEps clamps probabilities away from the boundary so log terms stay
// finite; the samplers never need to represent an exact 0 or 1.
const pEps = 1e-9

// ClampProb clamps a probability into the open unit interval every
// model's kernels work in, so all models agree on the boundary handling.
func ClampProb(p float64) float64 {
	if p < pEps {
		return pEps
	}
	if p > 1-pEps {
		return 1 - pEps
	}
	return p
}

// Log1mExp computes log(1 - e^x) for x < 0, stable near both ends: the
// kernel that turns a log no-show probability into a log positive one.
func Log1mExp(x float64) float64 {
	if x >= 0 {
		return math.Inf(-1)
	}
	if x > -math.Ln2 {
		return math.Log(-math.Expm1(x))
	}
	return math.Log1p(-math.Exp(x))
}

// LogProd is the log-product core both observation models' states embed:
// the probability vector p, the per-node lq[i] = log(1-p_i) and the
// per-path logQ[j] = Σ_{i∈J} lq[i], updated in O(paths containing i) when
// one coordinate moves. lq is an invariant, not scratch: every write to
// p[i] writes lq[i], so each log1p runs once per value. The models add
// only their per-path terms and gradient factors.
//
// LogProd also caches each path's current log-likelihood term, which the
// model computes: term[j] is the model's term at logQ[j] whenever termsOK
// holds. StartDelta leaves the candidate terms of one move in cand, and
// an Apply of exactly that move commits them, so an MH proposal evaluates
// each path's term once; every other write to the state (SetP, Recompute,
// an Apply of any other move) only invalidates the cache.
type LogProd struct {
	ds   *Dataset
	p    []float64
	lq   []float64
	logQ []float64

	term    []float64
	termsOK bool
	cand    []float64 // candidate terms of the pending move, sized to the largest node degree
	pendI   int       // node of the pending move, -1 when none is pending
	pendP   float64   // its clamped value
}

// NewLogProd builds the core over ds at p (copied and clamped).
func NewLogProd(ds *Dataset, p []float64) LogProd {
	deg := 0
	for _, paths := range ds.nodePaths {
		deg = max(deg, len(paths))
	}
	c := LogProd{
		ds: ds, p: make([]float64, len(p)), lq: make([]float64, len(p)), logQ: make([]float64, len(ds.paths)),
		term: make([]float64, len(ds.paths)), cand: make([]float64, deg),
	}
	c.SetP(p)
	return c
}

// Dataset returns the observations the core was built over.
//
//lint:hotpath
func (c *LogProd) Dataset() *Dataset { return c.ds }

// LogQ returns the per-path log products (callers must not modify it).
//
//lint:hotpath
func (c *LogProd) LogQ() []float64 { return c.logQ }

// Probabilities returns the core's own probability vector (mutated in
// place by Apply/SetP; callers must not modify it).
//
//lint:hotpath
func (c *LogProd) Probabilities() []float64 { return c.p }

// StartDelta begins a model's DeltaFor of node i to pNew. It returns the
// shift every logQ[j] of a path through i takes, log(1-pNew) - lq[i]; the
// per-path term cache; and cand, one slot per path of node i in
// NodePathIndices order, for the candidate terms. When stale is true the
// cache does not hold the current terms, and the caller must write every
// path's term at its logQ before reading it. The move becomes pending:
// an Apply(i, pNew) before any other write commits cand into the cache.
//
//lint:hotpath
func (c *LogProd) StartDelta(i int, pNew float64) (dLogQ float64, term, cand []float64, stale bool) {
	pNew = ClampProb(pNew)
	stale = !c.termsOK
	c.termsOK = true
	c.pendI, c.pendP = i, pNew
	return math.Log1p(-pNew) - c.lq[i], c.term, c.cand[:len(c.ds.nodePaths[i])], stale
}

// invalidate marks the term cache stale and drops any pending move.
//
//lint:hotpath
func (c *LogProd) invalidate() {
	c.termsOK = false
	c.pendI = -1
}

// SetP replaces the whole probability vector and rebuilds the caches;
// used by the HMC leapfrog, which moves all coordinates at once. It
// overwrites every value the state holds, so the result does not depend
// on what the state held before.
//
//lint:hotpath
func (c *LogProd) SetP(p []float64) {
	for i := range p {
		c.p[i] = ClampProb(p[i])
		c.lq[i] = math.Log1p(-c.p[i])
	}
	c.Recompute()
}

// Recompute rebuilds the logQ cache from lq (called initially and
// periodically to cancel the drift of incremental Apply updates) and
// invalidates the term cache, whose terms were taken at the old sums.
//
//lint:hotpath
func (c *LogProd) Recompute() {
	for j, path := range c.ds.paths {
		s := 0.0
		for _, i := range path.nodes {
			s += c.lq[i]
		}
		c.logQ[j] = s
	}
	c.invalidate()
}

// Apply commits a new value for node i, updating the caches. If (i, pNew)
// is the pending move of the last StartDelta, the candidate terms become
// the current ones: they were taken at logQ[j] + dLogQ, bitwise the sums
// written here. Any other move invalidates the term cache.
//
//lint:hotpath
func (c *LogProd) Apply(i int, pNew float64) {
	pNew = ClampProb(pNew)
	lq := math.Log1p(-pNew)
	dLogQ := lq - c.lq[i]
	paths := c.ds.nodePaths[i]
	for _, j := range paths {
		c.logQ[j] += dLogQ
	}
	c.p[i] = pNew
	c.lq[i] = lq
	if c.pendI != i || c.pendP != pNew {
		c.invalidate()
		return
	}
	for k, j := range paths {
		c.term[j] = c.cand[k]
	}
	c.pendI = -1
}

// GradPrior writes the Beta prior + Jacobian term of the logit-space
// gradient into grad: ∂/∂θ_i = a(1-p_i) - b·p_i.
//
//lint:hotpath
func (c *LogProd) GradPrior(prior Prior, grad []float64) {
	for i := range grad {
		p := c.p[i]
		grad[i] = prior.Alpha*(1-p) - prior.Beta*p
	}
}

// AddPathGrad adds w_j·p_i·factor to grad[i] for every node i on path
// j, where -factor is the derivative of path j's term in log Q_j.
//
//lint:hotpath
func (c *LogProd) AddPathGrad(grad []float64, j int, factor float64) {
	path := &c.ds.paths[j]
	for _, i := range path.nodes {
		grad[i] += path.weight * c.p[i] * factor
	}
}

// AddLogPrior accumulates the θ-space Beta prior + Jacobian log density
// Σ_i [a·log p_i + b·log(1-p_i)] onto lp in node order.
//
//lint:hotpath
func (c *LogProd) AddLogPrior(lp float64, prior Prior) float64 {
	for _, p := range c.p {
		lp += prior.Alpha*math.Log(p) + prior.Beta*math.Log(1-p)
	}
	return lp
}

// likState is the RFD model's incremental view of the likelihood: the
// shared log-product core plus the § 3.1 per-path terms.
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
	LogProd
	missRate float64
}

func newLikState(ds *Dataset, p []float64, missRate float64) *likState {
	return &likState{LogProd: NewLogProd(ds, p), missRate: missRate}
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
	t := Log1mExp(logQ)
	if st.missRate > 0 {
		t += math.Log1p(-st.missRate)
	}
	return t
}

// pathTerm is the log-probability of path j's label at log product logQ.
func (st *likState) pathTerm(j int, logQ float64) float64 {
	if st.ds.paths[j].positive {
		return st.logPosTerm(logQ)
	}
	return st.logNegTerm(logQ)
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
// current value to pNew, without moving the state: it refills a stale
// term cache and leaves the candidate terms for a matching Apply.
//
//lint:hotpath
func (st *likState) DeltaFor(i int, pNew float64) float64 {
	dLogQ, term, cand, stale := st.StartDelta(i, pNew)
	if stale {
		for j, logQ := range st.logQ {
			term[j] = st.pathTerm(j, logQ)
		}
	}
	delta := 0.0
	for k, j := range st.ds.nodePaths[i] {
		t := st.pathTerm(j, st.logQ[j]+dLogQ)
		cand[k] = t
		delta += st.ds.paths[j].weight * (t - term[j])
	}
	return delta
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
			q *= 1 - ClampProb(p[i])
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
// Q_j is exponentiated only on the paths whose factor reads it.
//
//lint:hotpath
func (st *likState) GradLogPostTheta(prior Prior, grad []float64) {
	st.GradPrior(prior, grad)
	for j, path := range st.ds.paths {
		factor := -1.0
		if path.positive {
			// d/dθ_i w log[(1-m)(1-Q)] = w p_i Q/(1-Q): the error factor
			// (1-m) is constant in p and drops out of the gradient.
			factor = PosGradFactor(math.Exp(st.logQ[j]))
		} else if st.missRate > 0 {
			// d/dθ_i w log[(1-m)Q + m] = -w p_i (1-m)Q / ((1-m)Q + m).
			q := math.Exp(st.logQ[j])
			factor = -((1 - st.missRate) * q / ((1-st.missRate)*q + st.missRate))
		}
		st.AddPathGrad(grad, j, factor)
	}
}

// LogPostTheta returns the log posterior density in θ space at the current
// state: logLik + Σ_i [a·log p_i + b·log(1-p_i)] (Beta prior + Jacobian,
// dropping the constant -log B(a,b)).
//
//lint:hotpath
func (st *likState) LogPostTheta(prior Prior) float64 {
	return st.AddLogPrior(st.LogLik(), prior)
}

func logPriorAt(prior Prior, p float64) float64 {
	p = ClampProb(p)
	return (prior.Alpha-1)*math.Log(p) + (prior.Beta-1)*math.Log(1-p)
}
