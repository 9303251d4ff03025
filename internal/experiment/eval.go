package experiment

import (
	"context"
	"fmt"
	"sort"
	"time"

	"because/internal/bgp"
	"because/internal/core"
	"because/internal/rov"
	"because/internal/stats"
)

// DivergenceReason classifies why a pinpointing method disagreed with the
// ground truth (Table 3's last column).
type DivergenceReason string

// Divergence reasons of Table 3.
const (
	ReasonNone          DivergenceReason = "-"
	ReasonHeterogeneous DivergenceReason = "Heterogeneous configuration"
	ReasonUpstreamRFD   DivergenceReason = "Upstream uses RFD"
	ReasonNotVisible    DivergenceReason = "Not detectable with this setup"
)

// Tab3Row is one case group of Table 3.
type Tab3Row struct {
	Cases      int
	Example    bgp.ASN
	Truth      bool // ground truth: deploys RFD
	BeCAUSe    bool
	Heuristics bool
	Reason     DivergenceReason
}

// Tab3Result is the divergence taxonomy.
type Tab3Result struct {
	Rows []Tab3Row
}

// Tab3Divergence compares BeCAUSe and the heuristics against the planted
// ground truth over all measured ASes and groups the outcomes into the
// paper's case taxonomy.
func Tab3Divergence(run *Run, res *core.Result) *Tab3Result {
	s := run.Scenario
	measured := run.MeasuredASes()
	heur := make(map[bgp.ASN]bool)
	for _, h := range run.Heuristics() {
		heur[h.ASN] = h.RFD
	}
	// ASes whose every path also crosses another damper ("hiding").
	hidden := hiddenBehindDamper(run)

	type caseKey struct {
		truth, bec, heu bool
		reason          DivergenceReason
	}
	groups := make(map[caseKey]*Tab3Row)
	var order []caseKey

	var asns []bgp.ASN
	for a := range measured {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	for _, asn := range asns {
		dep, isDamper := s.Deployments[asn]
		truth := isDamper
		bec := categoryOf(res, asn).Positive()
		heu := heur[asn]

		reason := ReasonNone
		switch {
		case truth && bec && !heu && dep.Mode == DampExceptOne:
			reason = ReasonHeterogeneous
		case truth && bec && !heu:
			reason = ReasonHeterogeneous // flagged via posterior, missed by tuned metrics
		case truth && !bec && dep.Mode == DampCustomersOnly:
			reason = ReasonNotVisible
		case truth && !bec && hidden[asn]:
			reason = ReasonUpstreamRFD
		case truth && !bec:
			reason = ReasonUpstreamRFD
		case !truth && (bec || heu):
			reason = ReasonUpstreamRFD // downstream of a damper, wrongly flagged
		}
		k := caseKey{truth, bec, heu, reason}
		row := groups[k]
		if row == nil {
			row = &Tab3Row{Example: asn, Truth: truth, BeCAUSe: bec, Heuristics: heu, Reason: reason}
			groups[k] = row
			order = append(order, k)
		}
		row.Cases++
	}
	out := &Tab3Result{}
	for _, k := range order {
		out.Rows = append(out.Rows, *groups[k])
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Cases > out.Rows[j].Cases })
	return out
}

// hiddenBehindDamper finds ASes all of whose RFD paths contain another
// planted damper closer to the beacon — their own behavior is unobservable.
func hiddenBehindDamper(run *Run) map[bgp.ASN]bool {
	s := run.Scenario
	out := make(map[bgp.ASN]bool)
	for asn := range s.Deployments {
		shadowed := true
		seen := false
		for _, m := range run.Measurements {
			idx := -1
			for i, a := range m.TomographyPath() {
				if a == asn {
					idx = i
					break
				}
			}
			if idx < 0 {
				continue
			}
			seen = true
			// Another damper between this AS and the origin?
			other := false
			for _, a := range m.TomographyPath()[idx+1:] {
				if _, ok := s.Deployments[a]; ok {
					other = true
					break
				}
			}
			if !other {
				shadowed = false
				break
			}
		}
		if seen && shadowed {
			out[asn] = true
		}
	}
	return out
}

// Report renders Table 3.
func (t *Tab3Result) Report() Report {
	rep := Report{ID: "tab3", Title: "Divergence between pinpointing methods and ground truth"}
	rep.Lines = append(rep.Lines, "cases  example     truth BeCAUSe heuristics reason")
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no "
	}
	for _, r := range t.Rows {
		rep.Lines = append(rep.Lines, fmt.Sprintf("%5d  %-10v %-5s %-7s %-10s %s",
			r.Cases, r.Example, mark(r.Truth), mark(r.BeCAUSe), mark(r.Heuristics), r.Reason))
	}
	return rep
}

// Tab4Result is the precision/recall summary (Table 4).
type Tab4Result struct {
	RFDBeCAUSe, RFDHeuristics stats.Confusion
	ROVBeCAUSe                stats.Confusion
	// ROVPositiveShare is the share of positive paths in the ROV dataset
	// (the paper reports ~90%, vs 18% for RFD).
	ROVPositiveShare float64
	RFDPositiveShare float64
}

// Tab4PrecisionRecallContext evaluates BeCAUSe and the heuristics against
// the planted RFD ground truth (over measured, detectable ASes — the paper
// likewise removed the two undetectable ASes) and BeCAUSe against a
// synthesised ROV deployment (§ 7). ctx reaches the suite's campaign and
// both inference runs, which are cancellable at sweep granularity.
func Tab4PrecisionRecallContext(ctx context.Context, s *Suite) (*Tab4Result, error) {
	run, err := s.IntervalRunContext(ctx, time.Minute)
	if err != nil {
		return nil, err
	}
	res, ds, err := s.InferenceContext(ctx, time.Minute)
	if err != nil {
		return nil, err
	}
	out := &Tab4Result{RFDPositiveShare: ds.PositiveShare()}
	measured := run.MeasuredASes()
	detectable := make(map[bgp.ASN]bool)
	for _, a := range run.Scenario.DetectableDampers() {
		detectable[a] = true
	}
	heur := make(map[bgp.ASN]bool)
	for _, h := range run.Heuristics() {
		heur[h.ASN] = h.RFD
	}
	for asn := range measured {
		_, planted := run.Scenario.Deployments[asn]
		if planted && !detectable[asn] {
			// Not detectable with this measurement setup: excluded, like
			// AS 8218 and AS 7575 in the paper.
			continue
		}
		out.RFDBeCAUSe.Add(categoryOf(res, asn).Positive(), planted)
		out.RFDHeuristics.Add(heur[asn], planted)
	}

	// ROV benchmark: label the measured paths with a synthesised ROV
	// deployment (§ 7 does the same with known ROV ASes), then run the
	// identical inference.
	rovRes, rovDS, rovASes, err := ROVBenchmarkContext(ctx, run)
	if err != nil {
		return nil, err
	}
	out.ROVPositiveShare = rovDS.PositiveShare()
	for _, asn := range rovDS.Nodes() {
		out.ROVBeCAUSe.Add(categoryOf(rovRes, asn).Positive(), rovASes[asn])
	}
	return out, nil
}

// ROVBenchmarkContext runs the § 7 ROV benchmark end to end under a
// context and exposes its internals — the inferred result, the synthetic
// dataset and the planted adopter set. It synthesises the dataset over the
// run's measured paths: transit ASes with large customer cones adopt ROV
// until ~90% of paths are positive, then BeCAUSe runs unchanged, on the
// scenario's worker count and observer. It is the rov-workload entry the
// scenario runner dispatches to, symmetric with Run.InferModelContext on
// the model side.
func ROVBenchmarkContext(ctx context.Context, run *Run) (*core.Result, *core.Dataset, map[bgp.ASN]bool, error) {
	s := run.Scenario
	// Candidate adopters: measured transit ASes, largest cones first.
	measured := run.MeasuredASes()
	var candidates []bgp.ASN
	for a := range measured {
		if node := s.Graph.AS(a); node != nil && node.Tier != 0 { // skip tier-1: realistic adopters are mid-size
			candidates = append(candidates, a)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		ci, cj := len(s.Graph.CustomerCone(candidates[i])), len(s.Graph.CustomerCone(candidates[j]))
		if ci != cj {
			return ci > cj
		}
		return candidates[i] < candidates[j]
	})
	var paths [][]bgp.ASN
	for _, m := range run.Measurements {
		paths = append(paths, m.Path)
	}
	// Grow the adopter set toward the paper's ~90% positive share, but
	// never overshoot: the residual negative paths are what exonerate the
	// big non-adopters (a Tier-1 with zero negative paths is statistically
	// indistinguishable from an adopter, and the Occam pressure of the
	// sparse prior would flag it).
	rovASes := make(map[bgp.ASN]bool)
	share := func() float64 {
		obs := rov.LabelPaths(paths, rovASes)
		if len(obs) == 0 {
			return 0
		}
		pos := 0
		for _, o := range obs {
			if o.Positive {
				pos++
			}
		}
		return float64(pos) / float64(len(obs))
	}
	const targetLo, targetHi = 0.85, 0.93
	for _, asn := range candidates {
		if share() >= targetLo {
			break
		}
		rovASes[asn] = true
		if share() > targetHi {
			delete(rovASes, asn) // overshoots: try a smaller cone instead
		}
	}
	obs := rov.LabelPaths(paths, rovASes)
	ds, err := core.NewDataset(obs)
	if err != nil {
		return nil, nil, nil, err
	}
	res, ds, err := run.infer(ctx, ds, core.Model{}, 99)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, ds, rovASes, nil
}

// Report renders Table 4.
func (t *Tab4Result) Report() Report {
	rep := Report{ID: "tab4", Title: "Precision and recall on planted ground truth"}
	rep.Lines = append(rep.Lines,
		"            BeCAUSe              Heuristics",
		"            precision recall    precision recall",
		fmt.Sprintf("RFD         %8.0f%% %5.0f%%    %8.0f%% %5.0f%%",
			100*t.RFDBeCAUSe.Precision(), 100*t.RFDBeCAUSe.Recall(),
			100*t.RFDHeuristics.Precision(), 100*t.RFDHeuristics.Recall()),
		fmt.Sprintf("ROV         %8.0f%% %5.0f%%         n/a    n/a",
			100*t.ROVBeCAUSe.Precision(), 100*t.ROVBeCAUSe.Recall()),
		fmt.Sprintf("positive path share: RFD %.0f%%, ROV %.0f%%",
			100*t.RFDPositiveShare, 100*t.ROVPositiveShare),
	)
	return rep
}
