package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"because/internal/bgp"
	"because/internal/core"
	"because/internal/heuristics"
	"because/internal/stats"
)

// Fig10Result contrasts the Burst announcement histograms of a damping and
// a non-damping AS (Figure 10).
type Fig10Result struct {
	DampingAS, CleanAS       bgp.ASN
	DampingHist, CleanHist   []float64
	DampingSlope, CleanSlope float64
	// Decline is the relative drop over the burst implied by each fit.
	DampingDecline, CleanDecline float64
}

// Fig10BurstHistogram picks a planted damp-all AS that appears on RFD paths
// and a clean AS on non-RFD paths, and computes their 40-bin Burst
// histograms with the regression fit.
func Fig10BurstHistogram(run *Run) (*Fig10Result, error) {
	s := run.Scenario
	var damper, clean bgp.ASN
	for _, m := range run.Measurements {
		for _, a := range m.TomographyPath() {
			d, planted := s.Deployments[a]
			if m.RFD && planted && d.Mode == DampAll && damper == 0 {
				damper = a
			}
			if !m.RFD && !planted && clean == 0 {
				clean = a
			}
		}
	}
	if damper == 0 || clean == 0 {
		return nil, fmt.Errorf("experiment: fig10 could not find archetype ASes (damper=%v clean=%v)", damper, clean)
	}
	const bins = 40
	dh, dreg, ok := heuristics.BurstHistogramOf(run.Entries, run.Schedules, damper, bins)
	if !ok {
		return nil, fmt.Errorf("experiment: no histogram for damper %v", damper)
	}
	ch, creg, ok := heuristics.BurstHistogramOf(run.Entries, run.Schedules, clean, bins)
	if !ok {
		return nil, fmt.Errorf("experiment: no histogram for clean AS %v", clean)
	}
	decline := func(reg stats.LinReg) float64 {
		if reg.Intercept <= 0 {
			return 0
		}
		d := -reg.Slope * float64(bins-1) / reg.Intercept
		return math.Max(0, math.Min(1, d))
	}
	return &Fig10Result{
		DampingAS: damper, CleanAS: clean,
		DampingHist: dh, CleanHist: ch,
		DampingSlope: dreg.Slope, CleanSlope: creg.Slope,
		DampingDecline: decline(dreg), CleanDecline: decline(creg),
	}, nil
}

// Report renders Figure 10.
func (r *Fig10Result) Report() Report {
	rep := Report{ID: "fig10", Title: "Announcement distribution across a Burst (RFD vs non-RFD AS)"}
	compact := func(h []float64) []int {
		out := make([]int, 8)
		for i, v := range h {
			out[i*8/len(h)] += int(v)
		}
		return out
	}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("RFD AS %v:     slope=%+.2f decline=%.2f burst-histogram(8 bins)=%v",
			r.DampingAS, r.DampingSlope, r.DampingDecline, compact(r.DampingHist)),
		fmt.Sprintf("non-RFD AS %v: slope=%+.2f decline=%.2f burst-histogram(8 bins)=%v",
			r.CleanAS, r.CleanSlope, r.CleanDecline, compact(r.CleanHist)),
	)
	return rep
}

// Fig12Row is one bar of Figure 12.
type Fig12Row struct {
	Interval time.Duration
	// Consistent counts ASes flagged by the category thresholds alone
	// (step 1); Inconsistent adds the step-2 pinpointed ASes.
	Consistent, Inconsistent int
	// Share is (Consistent+Inconsistent)/CommonMeasured.
	Share float64
}

// Fig12Result is the share of damping ASes per update interval.
type Fig12Result struct {
	// CommonMeasured is the number of ASes measured in all intervals (the
	// paper counts only those).
	CommonMeasured int
	Rows           []Fig12Row
}

// Fig12IntervalSweep runs (or reuses) one campaign per interval and counts
// flagged ASes among those measured in every experiment.
func Fig12IntervalSweep(ctx context.Context, s *Suite, intervals []time.Duration) (*Fig12Result, error) {
	if len(intervals) == 0 {
		intervals = PaperIntervals
	}
	// Intervals are independent; fill the suite caches on the worker pool
	// before the sequential aggregation below reads them.
	if err := s.PrewarmContext(ctx, intervals); err != nil {
		return nil, err
	}
	// Common measured population.
	var common map[bgp.ASN]bool
	for _, iv := range intervals {
		run, err := s.IntervalRunContext(ctx, iv)
		if err != nil {
			return nil, err
		}
		measured := run.MeasuredASes()
		if common == nil {
			common = measured
			continue
		}
		for a := range common {
			if !measured[a] {
				delete(common, a)
			}
		}
	}
	res := &Fig12Result{CommonMeasured: len(common)}
	for _, iv := range intervals {
		infRes, _, err := s.InferenceContext(ctx, iv)
		if err != nil {
			return nil, err
		}
		row := Fig12Row{Interval: iv}
		for _, sum := range infRes.Summaries {
			if !common[sum.ASN] || !sum.Category.Positive() {
				continue
			}
			if sum.Pinpointed {
				row.Inconsistent++
			} else {
				row.Consistent++
			}
		}
		if res.CommonMeasured > 0 {
			row.Share = float64(row.Consistent+row.Inconsistent) / float64(res.CommonMeasured)
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Interval < res.Rows[j].Interval })
	return res, nil
}

// Report renders Figure 12.
func (r *Fig12Result) Report() Report {
	rep := Report{ID: "fig12", Title: "Share of damping ASes per beacon update interval"}
	rep.Lines = append(rep.Lines, fmt.Sprintf("ASes measured in all experiments: %d", r.CommonMeasured))
	for _, row := range r.Rows {
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"interval %-4s consistent=%-3d inconsistent=%-3d share=%.1f%%",
			row.Interval, row.Consistent, row.Inconsistent, 100*row.Share))
	}
	return rep
}

// Fig13Result is the CDF of mean re-advertisement deltas per damped path,
// for each update interval; the 1-minute series exposes the
// max-suppress-time plateaus.
type Fig13Result struct {
	// Series maps interval -> sorted mean r-deltas (minutes).
	Series map[time.Duration][]float64
	// PlateauShare1m reports, for the 1-minute series, the sample share
	// within ±2.5 minutes after each canonical max-suppress-time.
	PlateauShare1m map[int]float64 // key: 10, 30, 60 (minutes)
}

// Fig13RDeltaCDF computes the r-delta distributions.
func Fig13RDeltaCDF(ctx context.Context, s *Suite, intervals []time.Duration) (*Fig13Result, error) {
	if len(intervals) == 0 {
		intervals = PaperIntervals
	}
	// Figure 13 is computed from raw measurements: warm only the campaign
	// runs, not the (much more expensive) inferences.
	if err := s.PrewarmRuns(ctx, intervals); err != nil {
		return nil, err
	}
	res := &Fig13Result{
		Series:         make(map[time.Duration][]float64),
		PlateauShare1m: make(map[int]float64),
	}
	for _, iv := range intervals {
		run, err := s.IntervalRunContext(ctx, iv)
		if err != nil {
			return nil, err
		}
		xs := rdeltasOf(run.Measurements)
		sort.Float64s(xs)
		res.Series[iv] = xs
	}
	one := res.Series[time.Minute]
	if len(one) > 0 {
		for _, plateau := range []int{10, 30, 60} {
			n := 0
			for _, x := range one {
				// Releases land at or slightly before the nominal value:
				// the penalty decays from its last top-up, which precedes
				// the final Burst announcement.
				if x >= float64(plateau)-2.5 && x < float64(plateau)+2.5 {
					n++
				}
			}
			res.PlateauShare1m[plateau] = float64(n) / float64(len(one))
		}
	}
	return res, nil
}

// Report renders Figure 13.
func (r *Fig13Result) Report() Report {
	rep := Report{ID: "fig13", Title: "CDF of re-advertisement delta per damped path"}
	seen := make(map[time.Duration]bool, len(r.Series))
	for iv := range r.Series {
		seen[iv] = true
	}
	for _, iv := range sortedDurations(seen) {
		xs := r.Series[iv]
		if len(xs) == 0 {
			rep.Lines = append(rep.Lines, fmt.Sprintf("interval %-4s (no damped paths)", iv))
			continue
		}
		e := stats.NewECDF(xs)
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"interval %-4s n=%-3d p25=%.0fm p50=%.0fm p75=%.0fm p95=%.0fm",
			iv, len(xs), e.Quantile(0.25), e.Quantile(0.5), e.Quantile(0.75), e.Quantile(0.95)))
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf(
		"1-minute plateaus: 10m=%.0f%% 30m=%.0f%% 60m=%.0f%% of damped paths",
		100*r.PlateauShare1m[10], 100*r.PlateauShare1m[30], 100*r.PlateauShare1m[60]))
	return rep
}

// categoryOf is a test helper surfaced for the eval code: the category of
// an AS in a result (0 when absent).
func categoryOf(res *core.Result, asn bgp.ASN) core.Category {
	if s, ok := res.Lookup(uint32(asn)); ok {
		return s.Category
	}
	return 0
}
