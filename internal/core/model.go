package core

import (
	"fmt"
	"math"
)

// ObservationModel is the pluggable likelihood contract of the engine: it
// maps a compiled Dataset of binary path observations onto the posterior
// terms the samplers need. The tomography core (§ 3.1) is agnostic to what
// the binary property is — RFD beacon signatures, ROV filtering, path
// churn — and an ObservationModel packages one such interpretation.
//
// A model must be a pure value: Name, Validate and NewState may depend
// only on the model's own parameters and their arguments — never on
// clocks, RNGs, goroutine identity or mutable globals — because model
// selection participates in becaused's result cache keys and in the
// bit-identical-at-any-worker-count reproducibility contract.
type ObservationModel interface {
	// Name is the model's stable wire identifier ("rfd", "churn"). It is
	// carried on Result and ASReport JSON and keyed into becaused's result
	// cache, so it must uniquely identify the likelihood semantics (two
	// models with different math must never share a name).
	Name() string
	// Validate checks the model's parameters. The samplers call it before
	// drawing anything.
	Validate() error
	// NewState compiles one chain's incremental likelihood state over ds,
	// initialised at probability vector p (indexed like ds.Nodes()). Each
	// chain gets its own state; states are never shared across goroutines.
	NewState(ds *Dataset, p []float64) ModelState
}

// ModelState is one chain's mutable view of a model's likelihood. The
// samplers drive it exclusively through this interface; likState (the RFD
// default) and churn.Model's state are the two implementations, and both
// embed LogProd, which owns the probability vector and its caches.
//
// Implementations must uphold three invariants, documented in DESIGN.md:
//
//   - Determinism: every method is a pure function of the state's current
//     probability vector and the dataset — no RNG, clock or map iteration.
//   - Incremental consistency: after any sequence of Apply calls,
//     LogLik() equals a fresh state's LogLik() at the same vector up to
//     float drift, and DeltaFor(i, p) equals the LogLik difference of
//     applying that move. Recompute cancels the accumulated drift and is
//     called by the samplers on a fixed cadence.
//   - Zero allocation: every method runs inside the samplers' hot loops
//     (they are reached from //lint:hotpath kernels) and must not allocate.
type ModelState interface {
	// LogLik returns the full data log-likelihood at the current vector.
	LogLik() float64
	// DeltaFor returns the log-likelihood change if node i moved to pNew,
	// without moving the state. It may fill the state's per-path term
	// cache and keep the move's candidate terms for an Apply of the same
	// move.
	DeltaFor(i int, pNew float64) float64
	// Apply commits a new value for node i, updating incremental caches.
	Apply(i int, pNew float64)
	// SetP replaces the whole probability vector (the HMC leapfrog moves
	// every coordinate at once) and rebuilds the caches. It overwrites
	// everything the state holds, so its result does not depend on the
	// state's past: HMC starts each trajectory on a scratch state without
	// copying the current one into it.
	SetP(p []float64)
	// Recompute rebuilds the incremental caches from scratch, cancelling
	// numeric drift.
	Recompute()
	// Probabilities returns the state's current probability vector in
	// dataset index order. The slice is the state's own storage: callers
	// must not modify it, and Apply/SetP mutate it in place.
	Probabilities() []float64
	// GradLogPostTheta fills grad with the gradient of the log posterior
	// in logit space (θ_i = logit p_i), including the Beta prior term and
	// the change-of-variables Jacobian. Used by HMC.
	GradLogPostTheta(prior Prior, grad []float64)
	// LogPostTheta returns the log posterior density in θ space at the
	// current state (likelihood + Beta prior + Jacobian, constants
	// dropped).
	LogPostTheta(prior Prior) float64
}

// RFDModel is the default ObservationModel: the paper's § 3.1 binary
// tomography likelihood, optionally under the § 7.2 measurement-error
// extension. With Q = Π_{i∈J}(1-p_i) and miss rate m:
//
//	P(labeled positive) = (1-m)·(1-Q)
//	P(labeled negative) = Q + m·(1-Q)
//
// MissRate 0 recovers the exact model of § 3.1. The zero value is the
// likelihood every pre-interface release shipped, and its draws are
// bit-identical to them (pinned by TestDefaultModelGolden and the
// reproducibility harness).
type RFDModel struct {
	// MissRate is the probability that a truly-positive path is recorded
	// negative (e.g. an RFD suppression the labeling window missed).
	MissRate float64
}

// Name returns "rfd".
func (RFDModel) Name() string { return "rfd" }

// Validate bounds MissRate to [0, 1) (NaN included in the rejects).
func (m RFDModel) Validate() error {
	if !(m.MissRate >= 0 && m.MissRate < 1) {
		return fmt.Errorf("core: rfd model miss rate %g outside [0, 1)", m.MissRate)
	}
	return nil
}

// NewState compiles the incremental likelihood state likState implements.
func (m RFDModel) NewState(ds *Dataset, p []float64) ModelState {
	return newLikState(ds, p, m.MissRate)
}

// PosGradFactor returns Q/(1-Q), the gradient factor of a positive
// path's log(1-Q) term. At Q ≈ 1 the observation is nearly impossible and
// the ratio overflows; a large but finite 1/eps then pushes mass up.
//
//lint:hotpath
func PosGradFactor(q float64) float64 {
	factor := q / (1 - q)
	if math.IsInf(factor, 1) || math.IsNaN(factor) {
		return 1 / pEps
	}
	return factor
}

// modelOrDefault resolves a possibly-nil model selection to the default
// RFD likelihood — the shared fallback of both samplers and InferContext.
func modelOrDefault(m ObservationModel) ObservationModel {
	if m == nil {
		return RFDModel{}
	}
	return m
}
