package scenario

import (
	"context"
	"fmt"
	"strconv"

	"because/internal/bgp"
	"because/internal/core"
	"because/internal/experiment"
)

// Outcome reports one scenario execution: the planted ground truth, what
// inference flagged, the derived error rates, and any expectation
// failures. The JSON form is served by becaused's named-scenario endpoint
// and printed by becausectl.
type Outcome struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Model names the observation model inference drew against ("rfd" or
	// "churn" — the resolved name).
	Model string `json:"model,omitempty"`
	// Planted is the ground-truth deployment size (RFD dampers, or ROV
	// adopters for the rov workload).
	Planted int `json:"planted"`
	// Detectable is how many planted deployments the measurement setup can
	// observe in principle (customers-only dampers without a beacon in
	// their cone are invisible).
	Detectable int `json:"detectable"`
	// Flagged counts measured ASes inference placed in category 4 or 5.
	Flagged        int `json:"flagged"`
	TruePositives  int `json:"true_positives"`
	FalsePositives int `json:"false_positives"`
	// FalseDiscovery is FP / (TP + FP); 0 when nothing was flagged.
	FalseDiscovery float64 `json:"false_discovery"`
	// DetectableRecall is the share of detectable deployments flagged.
	DetectableRecall float64 `json:"detectable_recall"`
	// Categories reports the inferred certainty category of every planted
	// AS and every AS the document pinned, keyed by decimal ASN.
	Categories map[string]int `json:"categories,omitempty"`
	// Failures lists unmet expectations, empty on success. Expectation
	// failures are data, not errors: the run itself succeeded.
	Failures []string `json:"failures,omitempty"`
}

// OK reports whether every expectation held.
func (o *Outcome) OK() bool { return len(o.Failures) == 0 }

// Run executes the scenario end to end — world construction, beacon
// campaign simulation, labeling, BeCAUSe inference — and checks the
// document's expectations. Infrastructure failures (invalid document,
// campaign or sampler errors, cancellation) return an error; unmet
// expectations land in Outcome.Failures.
func Run(ctx context.Context, spec *Spec) (*Outcome, error) {
	world, err := spec.Build()
	if err != nil {
		return nil, err
	}
	run, err := world.RunCampaignContext(ctx, spec.BeaconCampaign())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: campaign: %w", spec.Name, err)
	}

	var (
		res   *core.Result
		ds    *core.Dataset
		truth map[bgp.ASN]bool
	)
	switch {
	case spec.ResolvedWorkload() == "rov":
		var rovASes map[bgp.ASN]bool
		res, ds, rovASes, err = experiment.ROVBenchmarkContext(ctx, run)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: rov benchmark: %w", spec.Name, err)
		}
		truth = rovASes
	default:
		// The churn model relabels the same campaign: any path change marks
		// a path churned, and the planted dampers remain the ground truth —
		// they are what the extra churn must be attributed to once the
		// background rate absorbs the noise floor.
		res, ds, err = run.InferModelContext(ctx, core.Model{Name: spec.ResolvedModel(), BackgroundRate: spec.ChurnRate})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: inference: %w", spec.Name, err)
		}
		truth = make(map[bgp.ASN]bool, len(world.Deployments))
		for _, asn := range world.TrueDampers() {
			truth[asn] = true
		}
	}

	out := &Outcome{
		Name:       spec.Name,
		Workload:   spec.ResolvedWorkload(),
		Model:      spec.ResolvedModel(),
		Planted:    len(truth),
		Categories: make(map[string]int),
	}

	// Detectability: for the RFD workload the scenario knows which planted
	// modes are observable; ROV adopters are detectable iff measured.
	detectable := make(map[bgp.ASN]bool)
	if spec.ResolvedWorkload() == "rov" {
		for _, asn := range ds.Nodes() {
			if truth[asn] {
				detectable[asn] = true
			}
		}
	} else {
		for _, asn := range world.DetectableDampers() {
			detectable[asn] = true
		}
	}
	out.Detectable = len(detectable)

	flagged := make(map[bgp.ASN]bool)
	for _, asn := range ds.Nodes() {
		sum, ok := res.Lookup(uint32(asn))
		if !ok {
			continue
		}
		if truth[asn] {
			out.Categories[strconv.FormatUint(uint64(asn), 10)] = int(sum.Category)
		}
		if sum.Category.Positive() {
			flagged[asn] = true
			out.Flagged++
			if truth[asn] {
				out.TruePositives++
			} else {
				out.FalsePositives++
			}
		}
	}
	if out.Flagged > 0 {
		out.FalseDiscovery = float64(out.FalsePositives) / float64(out.Flagged)
	}
	if len(detectable) > 0 {
		hit := 0
		for asn := range detectable {
			if flagged[asn] {
				hit++
			}
		}
		out.DetectableRecall = float64(hit) / float64(len(detectable))
	}

	checkExpectations(spec, world, res, out)
	return out, nil
}

// checkExpectations evaluates the document's Expect block against the run
// and appends one human-readable line per unmet expectation.
func checkExpectations(spec *Spec, world *experiment.Scenario, res *core.Result, out *Outcome) {
	e := spec.Expect
	if e.MinDampers > 0 && out.Planted < e.MinDampers {
		out.Failures = append(out.Failures,
			fmt.Sprintf("planted %d deployments, expected at least %d", out.Planted, e.MinDampers))
	}
	if len(e.Presets) > 0 {
		have := make(map[string]bool)
		for _, d := range world.Deployments {
			have[d.ParamsName] = true
		}
		for _, p := range e.Presets {
			if !have[p] {
				out.Failures = append(out.Failures,
					fmt.Sprintf("no planted damper uses preset %q", p))
			}
		}
	}
	for _, ec := range e.ExpectedCategories() {
		key := strconv.FormatUint(uint64(ec.ASN), 10)
		sum, ok := res.Lookup(uint32(ec.ASN))
		if !ok {
			out.Failures = append(out.Failures,
				fmt.Sprintf("AS %d was pinned to category %d but is not a measured AS", ec.ASN, ec.Category))
			continue
		}
		out.Categories[key] = int(sum.Category)
		if int(sum.Category) != ec.Category {
			out.Failures = append(out.Failures,
				fmt.Sprintf("AS %d inferred category %d, expected %d", ec.ASN, int(sum.Category), ec.Category))
		}
	}
	if e.MaxFalseDiscovery != nil && out.FalseDiscovery > *e.MaxFalseDiscovery {
		out.Failures = append(out.Failures,
			fmt.Sprintf("false discovery rate %.3f exceeds %.3f", out.FalseDiscovery, *e.MaxFalseDiscovery))
	}
	if e.MinDetectableRecall != nil && out.DetectableRecall < *e.MinDetectableRecall {
		out.Failures = append(out.Failures,
			fmt.Sprintf("detectable recall %.3f below %.3f", out.DetectableRecall, *e.MinDetectableRecall))
	}
}
