package core

import (
	"fmt"
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

func (c MHConfig) schedule() (string, int, int, error) {
	if c.Sweeps == 0 {
		c.Sweeps = 1500
	}
	if c.BurnIn == 0 {
		c.BurnIn = c.Sweeps / 4
	}
	switch {
	case c.Sweeps < 1:
		return "", 0, 0, fmt.Errorf("core: MHConfig.Sweeps must be ≥ 1, got %d", c.Sweeps)
	case c.BurnIn < 0:
		return "", 0, 0, fmt.Errorf("core: MHConfig.BurnIn must be ≥ 0, got %d", c.BurnIn)
	}
	return "mh", c.BurnIn, c.Sweeps, nil
}

func (MHConfig) start(model ObservationModel, ds *Dataset, prior Prior, p0 []float64, _ *obs.Observer, _ string) kernel {
	return &mhKernel{st: model.NewState(ds, p0), prior: prior, order: make([]int, len(p0))}
}

// mhKernel is the MH transition: one mhSweep per step.
type mhKernel struct {
	st    ModelState
	prior Prior
	order []int // mhSweep's visit-order buffer
}

func (k *mhKernel) step(c *Chain, t int, rng *stats.RNG) {
	acc, prop := mhSweep(k.st, k.prior, mhStepSize, k.order, rng)
	c.Accepted += acc
	c.Proposed += prop
	// Periodically cancel numeric drift in the incremental cache.
	if t%256 == 255 {
		k.st.Recompute()
	}
}

func (k *mhKernel) state() ModelState { return k.st }

// mhSweep runs one random-scan Metropolis-within-Gibbs sweep: every
// coordinate, in a fresh random order written into the caller's order
// buffer, gets a truncated-normal proposal with the asymmetry correction
// of Eq. 7. The draw sequence is identical to the pre-extraction inline
// loop, so chains are bit-for-bit stable across the refactor. The sweep
// touches the likelihood only through the ModelState interface — every
// implementation's kernels must stay allocation-free (the hotpath
// contract below resolves the interface calls against all of them).
//
//lint:hotpath
func mhSweep(st ModelState, prior Prior, stepSize float64, order []int, rng *stats.RNG) (accepted, proposed int) {
	rng.PermInto(order)
	// Apply mutates the vector in place, so the slice stays current
	// across the whole sweep (part of the Probabilities contract).
	pvec := st.Probabilities()
	for _, i := range order {
		cur := pvec[i]
		prop := stats.TruncNormal{Mu: cur, Sigma: stepSize, Lo: 0, Hi: 1}
		cand := clampP(prop.Sample(rng))
		// log acceptance ratio: likelihood delta + prior delta +
		// proposal asymmetry Q(p|p')/Q(p'|p).
		back := stats.TruncNormal{Mu: cand, Sigma: stepSize, Lo: 0, Hi: 1}
		logAlpha := st.DeltaFor(i, cand) +
			logPriorAt(prior, cand) - logPriorAt(prior, cur) +
			back.LogPDF(cur) - prop.LogPDF(cand)
		proposed++
		if logAlpha >= 0 || math.Log(rng.Float64()+1e-300) < logAlpha {
			st.Apply(i, cand)
			accepted++
		}
	}
	return accepted, proposed
}
