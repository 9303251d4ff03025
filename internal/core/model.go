package core

import "fmt"

// Model selects the observation model both samplers draw against: the
// paper's § 3.1 binary tomography likelihood with the § 7.2 miss rate m
// and the background rate β of path-change tomography ("A Churn for the
// Better", PAPERS.md). With Q = Π_{i∈J}(1-p_i):
//
//	P(labeled positive) = (1-m)·(1 - (1-β)·Q)
//	P(labeled negative) = m + (1-m)·(1-β)·Q
//
// β = 0 and m = 0 recover the exact model of § 3.1. The zero value is that
// default ("rfd"), and its draws are bit-identical to every earlier
// release (pinned by TestDefaultModelGolden and the reproducibility
// harness).
//
// A Model is a pure value: model selection participates in becaused's
// result cache keys and in the bit-identical-at-any-worker-count
// reproducibility contract.
type Model struct {
	// Name is the wire identifier of the likelihood: "" or "rfd" reads
	// positives as RFD beacon signatures, "churn" as binary path changes.
	// Result.Model carries it resolved ("rfd" for ""). Two different
	// likelihoods must never share a name, so a background rate is
	// accepted only under "churn".
	Name string
	// MissRate is m: the probability that a truly-positive path is
	// recorded negative (e.g. an RFD suppression the labeling window
	// missed, or a path change the observation window missed).
	MissRate float64
	// BackgroundRate is β: the probability that a path shows the property
	// with no modeled AS responsible (maintenance, traffic engineering,
	// unrelated flaps). It absorbs the false positives that a weak "any
	// path change" labeling necessarily produces.
	BackgroundRate float64
}

// name returns the resolved wire identifier ("rfd" for the zero name).
func (m Model) name() string {
	if m.Name == "" {
		return "rfd"
	}
	return m.Name
}

// Validate checks the model: both rates in [0, 1) (NaN included in the
// rejects), a known name, and a background rate only under "churn". The
// first failure in that order is a *ConfigError on the Model field at
// fault. Config.Resolve calls it, so the samplers, the public options and
// the scenario specs all check their model fields here.
func (m Model) Validate() error {
	if !(m.MissRate >= 0 && m.MissRate < 1) {
		return &ConfigError{"Model.MissRate", fmt.Sprintf("%s model miss rate %g outside [0, 1)", m.name(), m.MissRate)}
	}
	switch m.Name {
	case "", "rfd", "churn":
	default:
		return &ConfigError{"Model.Name", fmt.Sprintf("unknown observation model %q (want rfd or churn)", m.Name)}
	}
	if !(m.BackgroundRate >= 0 && m.BackgroundRate < 1) {
		return &ConfigError{"Model.BackgroundRate", fmt.Sprintf("%s model background rate %g outside [0, 1)", m.name(), m.BackgroundRate)}
	}
	if m.BackgroundRate > 0 && m.Name != "churn" {
		return &ConfigError{"Model.BackgroundRate", fmt.Sprintf("background rate %g needs the churn model, not %s", m.BackgroundRate, m.name())}
	}
	return nil
}
