package experiment

import (
	"fmt"
	"sort"

	"because/internal/bgp"
	"because/internal/core"
	"because/internal/stats"
)

// Archetype names the four diagnostic marginal shapes of Figure 9.
type Archetype string

// Figure 9's archetypes.
const (
	ArchetypeDamper       Archetype = "strong-damper"     // (a) mass at 1
	ArchetypeNonDamper    Archetype = "strong-non-damper" // (b) mass at 0
	ArchetypeInconsistent Archetype = "inconsistent"      // (c) contradictory
	ArchetypeHidden       Archetype = "prior-recovered"   // (d) no information
)

// MarginalPicture is one AS's diagnostic distribution.
type MarginalPicture struct {
	Archetype Archetype
	ASN       bgp.ASN
	Mean      float64
	HDPI      stats.HDPI
	Category  core.Category
	// Histogram is the 10-bin marginal over [0,1].
	Histogram []int
}

// Fig9Result holds the four archetype marginals.
type Fig9Result struct {
	Pictures []MarginalPicture
}

// Fig9Marginals extracts the archetype distributions from a 1-minute
// inference: the strongest damper, the most exonerated AS, an AS flagged
// by the inconsistency pass (if any), and the AS whose posterior stayed
// closest to the prior (widest interval).
func Fig9Marginals(res *core.Result, ds *core.Dataset) *Fig9Result {
	out := &Fig9Result{}
	pooled := func(asn bgp.ASN) []float64 {
		i, ok := ds.NodeIndex(asn)
		if !ok {
			return nil
		}
		var xs []float64
		for _, c := range res.Chains {
			xs = append(xs, c.Marginal(i)...)
		}
		return xs
	}
	pick := func(arch Archetype, best func(a, b core.NodeSummary) bool, filter func(core.NodeSummary) bool) {
		var chosen *core.NodeSummary
		for i := range res.Summaries {
			s := res.Summaries[i]
			if filter != nil && !filter(s) {
				continue
			}
			if chosen == nil || best(s, *chosen) {
				chosen = &res.Summaries[i]
			}
		}
		if chosen == nil {
			return
		}
		xs := pooled(chosen.ASN)
		out.Pictures = append(out.Pictures, MarginalPicture{
			Archetype: arch,
			ASN:       chosen.ASN,
			Mean:      chosen.Mean,
			HDPI:      chosen.HDPI,
			Category:  chosen.Category,
			Histogram: stats.Histogram(xs, 0, 1, 10),
		})
	}
	// (a) strong damper: highest mean among high-certainty positives.
	pick(ArchetypeDamper,
		func(a, b core.NodeSummary) bool { return a.Mean > b.Mean },
		func(s core.NodeSummary) bool { return s.Certainty > 0.5 })
	// (b) strong non-damper: lowest mean among high-certainty ASes.
	pick(ArchetypeNonDamper,
		func(a, b core.NodeSummary) bool { return a.Mean < b.Mean },
		func(s core.NodeSummary) bool { return s.Certainty > 0.5 })
	// (c) inconsistent: a pinpointed AS (low mean yet flagged).
	pick(ArchetypeInconsistent,
		func(a, b core.NodeSummary) bool { return a.Mean < b.Mean },
		func(s core.NodeSummary) bool { return s.Pinpointed })
	// (d) prior recovered: the widest interval among undecided ASes (a
	// decisive category means data, not a recovered prior).
	pick(ArchetypeHidden,
		func(a, b core.NodeSummary) bool { return a.HDPI.Width() > b.HDPI.Width() },
		func(s core.NodeSummary) bool { return s.Category == core.CatUncertain })
	return out
}

// Report renders Figure 9.
func (r *Fig9Result) Report() Report {
	rep := Report{ID: "fig9", Title: "Example marginal posterior distributions (diagnostic pictures)"}
	for _, p := range r.Pictures {
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("%-18s %v mean=%.2f hdpi=[%.2f,%.2f] cat=%v hist=%v",
				p.Archetype, p.ASN, p.Mean, p.HDPI.Lo, p.HDPI.Hi, int(p.Category), p.Histogram))
	}
	return rep
}

// Fig11Point is one AS in the Figure-11 scatter plot.
type Fig11Point struct {
	ASN       bgp.ASN
	Mean      float64 // x: probability of damping
	Certainty float64 // y: 1 - HDPI width
	Category  core.Category
}

// Fig11Result is the mean-vs-certainty scatter of Figure 11.
type Fig11Result struct {
	Points []Fig11Point
	// UShape summarises the characteristic shape: counts in the three
	// x regions (left <0.3, middle, right >=0.7) split at certainty 0.5.
	HighCertLeft, HighCertRight, LowCert int
}

// Fig11Scatter computes the scatter from a 1-minute inference.
func Fig11Scatter(res *core.Result) *Fig11Result {
	out := &Fig11Result{}
	for _, s := range res.Summaries {
		out.Points = append(out.Points, Fig11Point{
			ASN: s.ASN, Mean: s.Mean, Certainty: s.Certainty, Category: s.Category,
		})
		switch {
		case s.Certainty < 0.5:
			out.LowCert++
		case s.Mean < 0.3:
			out.HighCertLeft++
		case s.Mean >= 0.7:
			out.HighCertRight++
		}
	}
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].ASN < out.Points[j].ASN })
	return out
}

// Report renders Figure 11.
func (r *Fig11Result) Report() Report {
	rep := Report{ID: "fig11", Title: "Mean damping probability vs certainty (1-minute interval)"}
	rep.Lines = append(rep.Lines, fmt.Sprintf(
		"U-shape: high-certainty non-dampers=%d, high-certainty dampers=%d, low-certainty base=%d",
		r.HighCertLeft, r.HighCertRight, r.LowCert))
	for _, p := range r.Points {
		rep.Lines = append(rep.Lines, fmt.Sprintf("%v mean=%.2f certainty=%.2f cat=%d",
			p.ASN, p.Mean, p.Certainty, int(p.Category)))
	}
	return rep
}

// Tab2Result is the category share table for the 1-minute interval.
type Tab2Result struct {
	Counts [6]int
	Total  int
}

// Tab2Categories computes Table 2.
func Tab2Categories(res *core.Result) *Tab2Result {
	out := &Tab2Result{Counts: res.CategoryCounts()}
	for _, c := range out.Counts {
		out.Total += c
	}
	return out
}

// RFDShare returns the category 4+5 share — the paper's "at least 9.1%"
// headline number.
func (t *Tab2Result) RFDShare() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.Counts[4]+t.Counts[5]) / float64(t.Total)
}

// Report renders Table 2.
func (t *Tab2Result) Report() Report {
	rep := Report{ID: "tab2", Title: "Assigned categories (1-minute update interval)"}
	header := "            cat1    cat2    cat3    cat4    cat5"
	counts := fmt.Sprintf("count   %7d %7d %7d %7d %7d", t.Counts[1], t.Counts[2], t.Counts[3], t.Counts[4], t.Counts[5])
	shares := "share  "
	for c := 1; c <= 5; c++ {
		shares += fmt.Sprintf(" %6.1f%%", 100*float64(t.Counts[c])/float64(max(1, t.Total)))
	}
	rep.Lines = append(rep.Lines, header, counts, shares,
		fmt.Sprintf("total ASes: %d; RFD lower bound (cat4+5): %.1f%%", t.Total, 100*t.RFDShare()))
	return rep
}
