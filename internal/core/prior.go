package core

import "fmt"

// Prior is a Beta(Alpha, Beta) prior on each node's proportion p_i. The
// Beta family covers every prior the paper evaluates: Uniform is
// Beta(1,1); the sparse prior concentrating mass near 0 and 1 — which
// makes the uncertainty picture of Figure 9 legible — is Beta(0.4, 0.4).
type Prior struct {
	Alpha, Beta float64
}

// Standard priors.
var (
	// UniformPrior is the uninformative choice.
	UniformPrior = Prior{Alpha: 1, Beta: 1}
	// SparsePrior places mass near 0 and 1: most ASes either damp
	// (almost) everything or (almost) nothing.
	SparsePrior = Prior{Alpha: 0.4, Beta: 0.4}
	// SymmetricPrior mildly concentrates around 1/2; used in the prior
	// ablation.
	SymmetricPrior = Prior{Alpha: 2, Beta: 2}
)

// Validate rejects shape parameters that are not positive (NaN
// included) as a *ConfigError on Prior.
func (p Prior) Validate() error {
	if !(p.Alpha > 0 && p.Beta > 0) {
		return &ConfigError{"Prior", fmt.Sprintf("Beta(%g, %g) parameters must be positive", p.Alpha, p.Beta)}
	}
	return nil
}
