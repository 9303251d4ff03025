package core

import (
	"math"

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
}

// mhStepSize is the standard deviation of the truncated-normal proposal.
const mhStepSize = 0.15

// mhLogStep and halfLog2Pi are the constant terms of the proposal's
// Gaussian log density.
var (
	mhLogStep  = math.Log(mhStepSize)
	halfLog2Pi = 0.5 * math.Log(2*math.Pi)
)

func (c MHConfig) schedule() (string, int, int) { return "mh", c.BurnIn, c.Sweeps }

func (MHConfig) start(model Model, ds *Dataset, prior Prior, p0 []float64, _ *obs.Observer, _ string) kernel {
	k := &mhKernel{
		st: newLikState(ds, p0, model), prior: prior, order: make([]int, len(p0)),
		logMass: make([]float64, len(p0)), logPrior: make([]float64, len(p0)),
	}
	for i, p := range k.st.Probabilities() {
		k.logMass[i] = proposal(p).LogMass()
		k.logPrior[i] = logPriorAt(prior, p)
	}
	return k
}

// mhKernel is the MH transition: one sweep per step. Beside the model
// state it keeps two per-node terms of the current position, so a
// proposal evaluates neither again: logMass[i], the log-normaliser of the
// proposal centred at p_i, and logPrior[i] = logPriorAt(prior, p_i).
// Only an accepted move changes p_i, and it takes the candidate's values.
type mhKernel struct {
	st                *likState
	prior             Prior
	order             []int // sweep's visit-order buffer
	logMass, logPrior []float64
}

func (k *mhKernel) step(c *Chain, t int, rng *stats.RNG) {
	acc, prop := k.sweep(rng)
	c.Accepted += acc
	c.Proposed += prop
	// Periodically cancel numeric drift in the incremental cache.
	if t%256 == 255 {
		k.st.Recompute()
	}
}

func (k *mhKernel) state() *likState { return k.st }

// proposal is the truncated-normal random-walk proposal centred at p.
func proposal(p float64) stats.TruncNormal {
	return stats.TruncNormal{Mu: p, Sigma: mhStepSize, Lo: 0, Hi: 1}
}

// proposalLogNormal is the untruncated Gaussian log density of a move
// between cur and cand, the same in both directions: (cur-cand)/σ is
// exactly -(cand-cur)/σ. Less the truncation mass of the proposal's
// centre, it is bitwise that proposal's LogPDFGiven at the other point,
// whose support and zero-mass checks never fire here: both points lie in
// [pEps, 1-pEps], where the mass is at least one half.
//
//lint:hotpath
func proposalLogNormal(cur, cand float64) float64 {
	z := (cand - cur) / mhStepSize
	return -0.5*z*z - mhLogStep - halfLog2Pi
}

// sweep runs one random-scan Metropolis-within-Gibbs sweep: every
// coordinate, in a fresh random order written into the order buffer,
// gets a truncated-normal proposal with the asymmetry correction of
// Eq. 7.
//
//lint:hotpath
func (k *mhKernel) sweep(rng *stats.RNG) (accepted, proposed int) {
	rng.PermInto(k.order)
	// Apply mutates the vector in place, so the slice stays current
	// across the whole sweep (part of the Probabilities contract).
	pvec := k.st.Probabilities()
	for _, i := range k.order {
		cur := pvec[i]
		cand := clampProb(proposal(cur).Sample(rng))
		massCand, priorCand := proposal(cand).LogMass(), logPriorAt(k.prior, cand)
		norm := proposalLogNormal(cur, cand)
		// log acceptance ratio: likelihood delta + prior delta +
		// proposal asymmetry Q(p|p')/Q(p'|p), whose two densities share
		// their Gaussian term.
		logAlpha := k.st.DeltaFor(i, cand) +
			priorCand - k.logPrior[i] +
			(norm - massCand) - (norm - k.logMass[i])
		proposed++
		if logAlpha >= 0 || math.Log(rng.Float64()+1e-300) < logAlpha {
			k.st.Apply(i, cand)
			k.logMass[i], k.logPrior[i] = massCand, priorCand
			accepted++
		}
	}
	return accepted, proposed
}
