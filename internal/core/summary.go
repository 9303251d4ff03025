package core

import (
	"fmt"
	"math"

	"because/internal/bgp"
	"because/internal/stats"
)

// Category is the paper's five-level certainty scale (Table 1): 1 and 2
// are highly-likely and likely NOT exhibiting the property, 3 is uncertain
// (contradictory or insufficient data), 4 and 5 are likely and
// highly-likely exhibiting it.
type Category int

// Categories.
const (
	CatHighlyLikelyNot Category = 1
	CatLikelyNot       Category = 2
	CatUncertain       Category = 3
	CatLikely          Category = 4
	CatHighlyLikely    Category = 5
)

// String renders the category.
func (c Category) String() string {
	switch c {
	case CatHighlyLikelyNot:
		return "1 (highly likely not)"
	case CatLikelyNot:
		return "2 (likely not)"
	case CatUncertain:
		return "3 (uncertain)"
	case CatLikely:
		return "4 (likely)"
	case CatHighlyLikely:
		return "5 (highly likely)"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Positive reports whether the category identifies the AS as exhibiting
// the property (the paper accepts Category 4 and 5 as RFD-enabled).
func (c Category) Positive() bool { return c >= CatLikely }

// Table-1 cut-offs.
const (
	cutLow  = 0.15
	cutMid  = 0.3
	cutHigh = 0.7
	cutTop  = 0.85
)

// categorizeMean maps the marginal mean to a category band.
func categorizeMean(mean float64) Category {
	switch {
	case mean < cutLow:
		return CatHighlyLikelyNot
	case mean < cutMid:
		return CatLikelyNot
	case mean < cutHigh:
		return CatUncertain
	case mean < cutTop:
		return CatLikely
	default:
		return CatHighlyLikely
	}
}

// categorizeHDPI maps the 95% HDPI to a category when the whole interval
// sits inside a decisive band. Table 1 keys the categories off the interval
// endpoints; a wide interval (the recovered-prior case of Figure 9d) must
// not be decisive, so the interval qualifies only when it is entirely
// contained in the band — the reading consistent with the paper's examples.
func categorizeHDPI(h stats.HDPI) Category {
	switch {
	case h.Hi < cutLow:
		return CatHighlyLikelyNot
	case h.Hi < cutMid:
		return CatLikelyNot
	case h.Lo >= cutTop:
		return CatHighlyLikely
	case h.Lo >= cutHigh:
		return CatLikely
	default:
		return CatUncertain
	}
}

// maxUncertainWidth is the HDPI width beyond which no decisive category is
// credible: an interval covering (almost) the whole unit interval is the
// recovered-prior picture of Figure 9(d) — "we did not see any meaningful
// data about this AS" — regardless of where the mean happens to sit.
const maxUncertainWidth = 0.8

// Categorize combines the mean and HDPI flags, taking the highest (the
// paper's rule), so strong interval evidence can upgrade a borderline
// mean. A marginal whose credible interval spans nearly the whole unit
// interval is capped at Category 3: decisive flags require certainty.
func Categorize(mean float64, h stats.HDPI) Category {
	mc, hc := categorizeMean(mean), categorizeHDPI(h)
	cat := mc
	if hc > cat {
		cat = hc
	}
	if cat != CatUncertain && h.Width() > maxUncertainWidth {
		return CatUncertain
	}
	return cat
}

// NodeSummary is the reported per-AS inference outcome.
type NodeSummary struct {
	ASN bgp.ASN
	// Mean is the pooled posterior mean of p_i.
	Mean float64
	// HDPI is the pooled 95% highest posterior density interval.
	HDPI stats.HDPI
	// Certainty is 1 - HDPI width, the Figure-11 y-axis.
	Certainty float64
	// Category is the combined flag across samplers (highest wins),
	// possibly upgraded by the pinpointing pass.
	Category Category
	// Pinpointed marks ASes upgraded to Category 4 by the Eq. 8
	// inconsistent-damper pass.
	Pinpointed bool
	// RHat is the Gelman-Rubin potential scale reduction across the
	// independent MH chains (NaN when fewer than two were run; values
	// near 1 indicate convergence).
	RHat float64
	// PosPaths and NegPaths count the observations the AS appeared on.
	PosPaths, NegPaths int
}

// Summarize computes per-node summaries from one or more chains (samples
// pooled across chains; categories evaluated per chain and combined by the
// highest flag, per § 5.1).
func Summarize(ds *Dataset, chains []*Chain, hdpiMass float64) ([]NodeSummary, error) {
	if len(chains) == 0 {
		return nil, fmt.Errorf("core: no chains to summarise")
	}
	if !(hdpiMass > 0 && hdpiMass < 1) {
		return nil, fmt.Errorf("core: invalid HDPI mass %g", hdpiMass)
	}
	n := ds.NumNodes()
	for _, c := range chains {
		if len(c.Nodes) != n {
			return nil, fmt.Errorf("core: chain/%s node count %d != dataset %d", c.Method, len(c.Nodes), n)
		}
	}
	total := 0
	for _, c := range chains {
		total += len(c.Samples)
	}
	// One pooled buffer and one HDPI scratch serve every node.
	pooled, scratch := make([]float64, 0, total), make([]float64, total)
	out := make([]NodeSummary, n)
	for i := 0; i < n; i++ {
		pooled = pooled[:0]
		cat := Category(0)
		for _, c := range chains {
			start := len(pooled)
			for _, s := range c.Samples {
				pooled = append(pooled, s[i])
			}
			m := pooled[start:]
			cc := Categorize(stats.Mean(m), stats.HDPIInto(scratch, m, hdpiMass))
			if cc > cat {
				cat = cc
			}
		}
		h := stats.HDPIInto(scratch, pooled, hdpiMass)
		// The per-chain flags are combined by the highest, but the pooled
		// interval is the honest uncertainty estimate: when it spans almost
		// everything the chains disagree (or the node is unidentifiable),
		// and no decisive flag is credible.
		if cat != CatUncertain && h.Width() > maxUncertainWidth {
			cat = CatUncertain
		}
		pos, neg := ds.PathsOf(ds.Nodes()[i])
		out[i] = NodeSummary{
			ASN:       ds.Nodes()[i],
			Mean:      stats.Mean(pooled),
			HDPI:      h,
			Certainty: 1 - h.Width(),
			Category:  cat,
			RHat:      math.NaN(),
			PosPaths:  pos,
			NegPaths:  neg,
		}
	}
	return out, nil
}
