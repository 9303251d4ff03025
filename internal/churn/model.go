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
	return &state{
		LogProd: core.NewLogProd(ds, p),
		miss:    m.MissRate,
		logBG:   math.Log1p(-m.BackgroundRate),
	}
}

// state is the sampler's incremental view of the churn likelihood: the
// shared log-product core with every per-path log product shifted by
// log(1-β). The effective log no-churn probability of path j is
// LogQ()[j] + logBG.
type state struct {
	core.LogProd
	miss  float64
	logBG float64 // log(1-β), folded into every per-path term
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

// pathTerm is the log-probability of path j's label at modeled log
// product logQ.
func (st *state) pathTerm(j int, logQ float64) float64 {
	if st.Dataset().PathPositive(j) {
		return st.logChurnTerm(logQ)
	}
	return st.logStableTerm(logQ)
}

// LogLik returns the full data log-likelihood at the current state.
//
//lint:hotpath
func (st *state) LogLik() float64 {
	ds := st.Dataset()
	total := 0.0
	for j, logQ := range st.LogQ() {
		total += ds.PathWeight(j) * st.pathTerm(j, logQ)
	}
	return total
}

// DeltaFor returns the change in log-likelihood if node i moved from its
// current value to pNew, without moving the state: it refills a stale
// term cache and leaves the candidate terms for a matching Apply.
//
//lint:hotpath
func (st *state) DeltaFor(i int, pNew float64) float64 {
	ds, logQ := st.Dataset(), st.LogQ()
	dLogQ, term, cand, stale := st.StartDelta(i, pNew)
	if stale {
		for j, q := range logQ {
			term[j] = st.pathTerm(j, q)
		}
	}
	delta := 0.0
	for k, j := range ds.NodePathIndices(i) {
		t := st.pathTerm(j, logQ[j]+dLogQ)
		cand[k] = t
		delta += ds.PathWeight(j) * (t - term[j])
	}
	return delta
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
// At m = 0 the stable factor is exactly 1 and Q' is not evaluated: the
// ratio form would be Q'/Q', which is NaN once Q' underflows to 0 on a
// long path of near-certain ASes.
//
//lint:hotpath
func (st *state) GradLogPostTheta(prior core.Prior, grad []float64) {
	st.GradPrior(prior, grad)
	ds := st.Dataset()
	for j, logQ := range st.LogQ() {
		factor := -1.0
		if ds.PathPositive(j) {
			factor = core.PosGradFactor(math.Exp(logQ + st.logBG))
		} else if st.miss > 0 {
			q := math.Exp(logQ + st.logBG)
			factor = -((1 - st.miss) * q / ((1-st.miss)*q + st.miss))
		}
		st.AddPathGrad(grad, j, factor)
	}
}

// LogPostTheta returns the log posterior density in θ space at the
// current state: LogLik + Σ_i [a·log p_i + b·log(1-p_i)] (Beta prior +
// Jacobian, dropping the constant -log B(a,b)).
//
//lint:hotpath
func (st *state) LogPostTheta(prior core.Prior) float64 {
	return st.AddLogPrior(st.LogLik(), prior)
}
