package experiment

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"because/internal/collector"
	"because/internal/rfd"
	"because/internal/stats"
)

// The figure tests share one small suite; campaigns and inferences are
// cached inside it, and the sync.Once keeps the cost to one construction.
var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		cfg := DefaultScenario()
		cfg.Topology.Transit = 40
		cfg.Topology.Stubs = 90
		cfg.Sites = 5
		cfg.VPsPerProject = 6
		cfg.RFDShare = 0.7
		cfg.CustomerOnlyDampers = 1
		suiteVal, suiteErr = NewSuite(cfg, 2)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestFig2PenaltyTrace(t *testing.T) {
	res, err := Fig2PenaltyTrace(rfd.Cisco, time.Minute, time.Hour, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuppressAt < 0 {
		t.Fatal("never suppressed")
	}
	if res.ReleaseAt <= res.SuppressAt {
		t.Fatalf("release %v not after suppress %v", res.ReleaseAt, res.SuppressAt)
	}
	ceiling := rfd.Cisco.MaxPenalty()
	maxSeen := 0.0
	for _, p := range res.Points {
		if p.Penalty > ceiling+1e-6 {
			t.Fatalf("penalty %g exceeds ceiling %g", p.Penalty, ceiling)
		}
		if p.Penalty > maxSeen {
			maxSeen = p.Penalty
		}
	}
	if maxSeen < rfd.Cisco.SuppressThreshold {
		t.Errorf("max penalty %g never crossed the suppress threshold", maxSeen)
	}
	// After flapping stops the penalty decays monotonically.
	last := res.Points[len(res.Points)-1]
	if last.Penalty > rfd.Cisco.ReuseThreshold {
		t.Errorf("final penalty %g still above reuse threshold", last.Penalty)
	}
	if rep := res.Report(); len(rep.Lines) == 0 {
		t.Error("empty report")
	}
}

func TestFig2Validation(t *testing.T) {
	if _, err := Fig2PenaltyTrace(rfd.Params{}, time.Minute, time.Hour, 2*time.Hour); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Fig2PenaltyTrace(rfd.Cisco, 0, time.Hour, 2*time.Hour); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Fig2PenaltyTrace(rfd.Cisco, time.Minute, 2*time.Hour, time.Hour); err == nil {
		t.Error("observe < flap accepted")
	}
}

func TestFig5Signature(t *testing.T) {
	res, err := Fig5Signature()
	if err != nil {
		t.Fatal(err)
	}
	if !res.RFDLabeled {
		t.Error("RFD path not labeled")
	}
	if res.CleanLabeled {
		t.Error("clean path labeled RFD")
	}
	if res.RDelta < 5*time.Minute || res.RDelta > 61*time.Minute {
		t.Errorf("r-delta = %v", res.RDelta)
	}
	// The damped path shows far fewer updates than the clean one.
	if len(res.RFDEvents) >= len(res.CleanEvent) {
		t.Errorf("damped path saw %d updates vs clean %d", len(res.RFDEvents), len(res.CleanEvent))
	}
	if rep := res.Report(); len(rep.Lines) != 2 {
		t.Error("report lines")
	}
}

func TestFig6LinkSimilarity(t *testing.T) {
	s := testSuite(t)
	run, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res := Fig6LinkSimilarity(run)
	if res.TotalLinks == 0 {
		t.Fatal("no links observed")
	}
	if len(res.SiteShare) != len(s.Scenario().Sites) {
		t.Errorf("sites in share map = %d", len(res.SiteShare))
	}
	for site, share := range res.SiteShare {
		if share <= 0 || share > 1 {
			t.Errorf("site %v share = %g", site, share)
		}
	}
	if res.MedianPathsPerLinkAll < res.MedianPathsPerLinkSingle {
		t.Errorf("multi-site median %.1f below single-site %.1f",
			res.MedianPathsPerLinkAll, res.MedianPathsPerLinkSingle)
	}
	if rep := res.Report(); len(rep.Lines) == 0 {
		t.Error("empty report")
	}
}

func TestFig7ProjectOverlap(t *testing.T) {
	s := testSuite(t)
	run, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res := Fig7ProjectOverlap(run)
	if res.Union == 0 {
		t.Fatal("no paths")
	}
	uniqueSum := 0
	for _, p := range collector.Projects {
		if res.PathsByProject[p] == 0 {
			t.Errorf("project %v contributed nothing", p)
		}
		uniqueSum += res.UniqueByProject[p]
	}
	if uniqueSum == 0 {
		t.Error("no project contributes unique paths (edge VPs should be distinct)")
	}
	if uniqueSum > res.Union {
		t.Errorf("unique %d exceeds union %d", uniqueSum, res.Union)
	}
	if rep := res.Report(); len(rep.Lines) != 4 {
		t.Errorf("report lines = %d", len(rep.Lines))
	}
}

func TestFig8Propagation(t *testing.T) {
	s := testSuite(t)
	run, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res := Fig8Propagation(run)
	if res.Samples == 0 {
		t.Fatal("no propagation samples")
	}
	// Propagation (links + MRAI + export delay) lands within ~2.5 minutes.
	if res.P50 <= 0 || res.P50 > 150 {
		t.Errorf("median propagation = %gs", res.P50)
	}
	if res.P99 > 300 {
		t.Errorf("p99 propagation = %gs", res.P99)
	}
	if res.RouteViewsOn50s < 0.9 {
		t.Errorf("routeviews 50s-cycle share = %g", res.RouteViewsOn50s)
	}
	// Isolario exports faster than RIS on average (30s vs 60s window).
	iso, okI := res.PerProject[collector.Isolario]
	ris, okR := res.PerProject[collector.RIS]
	if okI && okR && iso[0] > ris[0]+20 {
		t.Errorf("isolario median %.0fs much slower than ris %.0fs", iso[0], ris[0])
	}
	if rep := res.Report(); len(rep.Lines) == 0 {
		t.Error("empty report")
	}
}

func TestFig9Marginals(t *testing.T) {
	s := testSuite(t)
	res, ds, err := s.InferenceContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fig := Fig9Marginals(res, ds)
	if len(fig.Pictures) < 3 {
		t.Fatalf("archetypes found = %d", len(fig.Pictures))
	}
	byArch := map[Archetype]MarginalPicture{}
	for _, p := range fig.Pictures {
		byArch[p.Archetype] = p
		sum := 0
		for _, c := range p.Histogram {
			sum += c
		}
		if sum == 0 {
			t.Errorf("%s histogram empty", p.Archetype)
		}
	}
	if d, ok := byArch[ArchetypeDamper]; ok {
		if d.Mean < 0.7 {
			t.Errorf("damper archetype mean = %g", d.Mean)
		}
		if _, planted := s.Scenario().Deployments[d.ASN]; !planted {
			t.Errorf("damper archetype %v is not a planted damper", d.ASN)
		}
	} else {
		t.Error("no damper archetype")
	}
	if n, ok := byArch[ArchetypeNonDamper]; ok {
		if n.Mean > 0.3 {
			t.Errorf("non-damper archetype mean = %g", n.Mean)
		}
	} else {
		t.Error("no non-damper archetype")
	}
	if h, ok := byArch[ArchetypeHidden]; ok {
		if h.HDPI.Width() < 0.3 {
			t.Errorf("hidden archetype interval width = %g", h.HDPI.Width())
		}
	}
	if rep := fig.Report(); len(rep.Lines) != len(fig.Pictures) {
		t.Error("report lines")
	}
}

func TestFig10BurstHistogram(t *testing.T) {
	s := testSuite(t)
	run, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig10BurstHistogram(run)
	if err != nil {
		t.Fatal(err)
	}
	if res.DampingDecline <= res.CleanDecline {
		t.Errorf("damping decline %.2f not above clean %.2f", res.DampingDecline, res.CleanDecline)
	}
	if res.DampingSlope >= 0 {
		t.Errorf("damping slope %.2f not negative", res.DampingSlope)
	}
	if rep := res.Report(); len(rep.Lines) != 2 {
		t.Error("report lines")
	}
}

func TestFig11Scatter(t *testing.T) {
	s := testSuite(t)
	res, _, err := s.InferenceContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fig := Fig11Scatter(res)
	if len(fig.Points) != len(res.Summaries) {
		t.Fatalf("points = %d, want %d", len(fig.Points), len(res.Summaries))
	}
	if fig.HighCertLeft == 0 {
		t.Error("no high-certainty non-dampers (left arm of the U)")
	}
	if fig.HighCertRight == 0 {
		t.Error("no high-certainty dampers (right arm of the U)")
	}
	if rep := fig.Report(); len(rep.Lines) < 2 {
		t.Error("report lines")
	}
}

func TestTab2Categories(t *testing.T) {
	s := testSuite(t)
	res, ds, err := s.InferenceContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tab := Tab2Categories(res)
	if tab.Total != ds.NumNodes() {
		t.Errorf("total = %d, want %d", tab.Total, ds.NumNodes())
	}
	if share := tab.RFDShare(); share <= 0 || share > 0.6 {
		t.Errorf("RFD share = %g", share)
	}
	if rep := tab.Report(); len(rep.Lines) != 4 {
		t.Error("report lines")
	}
}

func TestFig12IntervalSweep(t *testing.T) {
	s := testSuite(t)
	res, err := Fig12IntervalSweep(context.Background(), s, []time.Duration{time.Minute, 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommonMeasured == 0 {
		t.Fatal("no commonly measured ASes")
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	oneMin, tenMin := res.Rows[0], res.Rows[1]
	if oneMin.Interval != time.Minute {
		t.Fatal("rows not sorted")
	}
	if oneMin.Share == 0 {
		t.Error("1-minute interval found no dampers")
	}
	// The knee: fast flapping triggers every preset, slow flapping only a
	// subset (Juniper defaults at 10 min).
	if tenMin.Share > oneMin.Share {
		t.Errorf("10m share %.2f exceeds 1m share %.2f", tenMin.Share, oneMin.Share)
	}
	if rep := res.Report(); len(rep.Lines) != 3 {
		t.Error("report lines")
	}
}

func TestFig13RDeltaCDF(t *testing.T) {
	s := testSuite(t)
	res, err := Fig13RDeltaCDF(context.Background(), s, []time.Duration{time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	one := res.Series[time.Minute]
	if len(one) == 0 {
		t.Fatal("no damped paths at 1 minute")
	}
	for _, x := range one {
		if x < 3 || x > 70 {
			t.Errorf("implausible mean r-delta %.1f minutes", x)
		}
	}
	total := res.PlateauShare1m[10] + res.PlateauShare1m[30] + res.PlateauShare1m[60]
	if total < 0.5 {
		t.Errorf("plateau mass = %.2f, expected most damped paths on the canonical max-suppress-times", total)
	}
	if rep := res.Report(); len(rep.Lines) < 2 {
		t.Error("report lines")
	}
}

func TestTab3Divergence(t *testing.T) {
	s := testSuite(t)
	run, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.InferenceContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tab := Tab3Divergence(run, res)
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The dominant case must be agreement on non-dampers.
	top := tab.Rows[0]
	if top.Truth || top.BeCAUSe || top.Heuristics {
		t.Errorf("top row should be the all-negative agreement: %+v", top)
	}
	// Some agreement on true dampers must exist.
	foundAgreePositive := false
	for _, r := range tab.Rows {
		if r.Truth && r.BeCAUSe {
			foundAgreePositive = true
		}
	}
	if !foundAgreePositive {
		t.Error("no true damper recovered")
	}
	if rep := tab.Report(); len(rep.Lines) != len(tab.Rows)+1 {
		t.Error("report lines")
	}
}

func TestTab4PrecisionRecall(t *testing.T) {
	s := testSuite(t)
	tab, err := Tab4PrecisionRecallContext(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Headline shape: BeCAUSe precision is at least the heuristics', and
	// both methods find a solid share of the detectable dampers.
	if tab.RFDBeCAUSe.Precision() < tab.RFDHeuristics.Precision()-1e-9 {
		t.Errorf("BeCAUSe precision %.2f below heuristics %.2f",
			tab.RFDBeCAUSe.Precision(), tab.RFDHeuristics.Precision())
	}
	if tab.RFDBeCAUSe.Precision() < 0.9 {
		t.Errorf("BeCAUSe RFD precision = %.2f", tab.RFDBeCAUSe.Precision())
	}
	if tab.RFDBeCAUSe.Recall() < 0.5 {
		t.Errorf("BeCAUSe RFD recall = %.2f", tab.RFDBeCAUSe.Recall())
	}
	// ROV: high precision, recall limited by hiding (paper: 100%/64%).
	if tab.ROVBeCAUSe.Precision() < 0.85 {
		t.Errorf("ROV precision = %.2f", tab.ROVBeCAUSe.Precision())
	}
	if tab.ROVBeCAUSe.Recall() <= 0 || tab.ROVBeCAUSe.Recall() > tab.RFDBeCAUSe.Recall()+0.3 {
		t.Errorf("ROV recall = %.2f (rfd %.2f)", tab.ROVBeCAUSe.Recall(), tab.RFDBeCAUSe.Recall())
	}
	if tab.ROVPositiveShare < 0.75 {
		t.Errorf("ROV positive share = %.2f, want ~0.9", tab.ROVPositiveShare)
	}
	if tab.RFDPositiveShare > 0.6 {
		t.Errorf("RFD positive share = %.2f, want minority", tab.RFDPositiveShare)
	}
	if rep := tab.Report(); len(rep.Lines) != 5 {
		t.Error("report lines")
	}
}

func TestPilot2019(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Topology.Transit = 40
	cfg.Topology.Stubs = 90
	cfg.Sites = 4
	cfg.VPsPerProject = 5
	cfg.RFDShare = 0.7
	cfg.AggressiveShare = 0.5
	res, err := Pilot2019(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	fifteen, thirty, sixty := res.Rows[0], res.Rows[1], res.Rows[2]
	if fifteen.Interval != 15*time.Minute {
		t.Fatal("rows not sorted")
	}
	if fifteen.RFDPaths == 0 {
		t.Error("pilot found no RFD at 15 minutes (aggressive-legacy dampers should trigger)")
	}
	// Slow intervals stay (nearly) clean. The occasional single path is
	// path-hunting amplification — extra attr-change penalties from
	// exploration updates — the very effect the paper blames for its own
	// residual 10/15-minute detections.
	if thirty.RFDPaths > fifteen.RFDPaths/2 || sixty.RFDPaths > fifteen.RFDPaths/2 {
		t.Errorf("slow intervals not mostly clean: 15m=%d 30m=%d 60m=%d",
			fifteen.RFDPaths, thirty.RFDPaths, sixty.RFDPaths)
	}
	if rep := res.Report(); len(rep.Lines) != 4 {
		t.Error("report lines")
	}
}

func TestAppendixAEthics(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Topology.Transit = 30
	cfg.Topology.Stubs = 70
	cfg.Sites = 3
	cfg.VPsPerProject = 4
	cfg.BackgroundPrefixes = 40
	cfg.ChurnMeanInterval = 15 * time.Minute
	res, err := AppendixAEthics(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BeaconUpdates == 0 {
		t.Fatal("no beacon updates")
	}
	if res.BackgroundUpdates == 0 {
		t.Fatal("no background churn observed")
	}
	if res.Share <= 0 || res.Share >= 1 {
		t.Errorf("share = %g", res.Share)
	}
	if res.NoisiestBackground == 0 {
		t.Error("no noisiest background prefix")
	}
	if rep := res.Report(); len(rep.Lines) != 4 {
		t.Errorf("report lines = %d", len(rep.Lines))
	}
}

func TestBackgroundChurnDoesNotDisturbLabels(t *testing.T) {
	// The same campaign with and without background churn must produce the
	// same labeled beacon paths: labeling keys strictly off beacon
	// prefixes.
	cfg := DefaultScenario()
	cfg.Topology.Transit = 30
	cfg.Topology.Stubs = 70
	cfg.Sites = 3
	cfg.VPsPerProject = 4
	quietScenario, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := quietScenario.RunCampaignContext(context.Background(), IntervalCampaign(time.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.BackgroundPrefixes = 30
	noisyScenario, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := noisyScenario.RunCampaignContext(context.Background(), IntervalCampaign(time.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	quietLabels := map[string]bool{}
	for _, m := range quiet.Measurements {
		quietLabels[m.Key()] = m.RFD
	}
	for _, m := range noisy.Measurements {
		if want, ok := quietLabels[m.Key()]; ok && want != m.RFD {
			t.Errorf("label flipped under churn: %s %v->%v", m.Key(), want, m.RFD)
		}
	}
}

// ksDistance is the two-sample Kolmogorov–Smirnov statistic: the largest
// vertical gap between the empirical CDFs of a and b.
func ksDistance(a, b []float64) float64 {
	a, b = stats.NewECDF(a).X, stats.NewECDF(b).X
	cdf := func(s []float64, x float64) float64 {
		return float64(sort.Search(len(s), func(i int) bool { return s[i] > x })) / float64(len(s))
	}
	d := 0.0
	for _, x := range append(append([]float64(nil), a...), b...) {
		d = max(d, math.Abs(cdf(a, x)-cdf(b, x)))
	}
	return d
}

func TestFig8PropagationConsistentAcrossCampaigns(t *testing.T) {
	// Figure 8's claim: two independent beacon families "show the same
	// characteristics". Here: the anchor propagation distributions of two
	// separate campaigns over the same infrastructure are statistically
	// close (small Kolmogorov-Smirnov distance).
	s := testSuite(t)
	runA, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := s.IntervalRunContext(context.Background(), 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	secs := func(run *Run) []float64 {
		var out []float64
		for _, p := range run.Propagation {
			out = append(out, p.Delta.Seconds())
		}
		return out
	}
	a, b := secs(runA), secs(runB)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("missing propagation samples")
	}
	if d := ksDistance(a, b); d > 0.2 {
		t.Errorf("propagation distributions diverge: KS = %.2f", d)
	}
}

func TestSuiteCachesRunsAndInferences(t *testing.T) {
	s := testSuite(t)
	r1, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("IntervalRunContext not cached")
	}
	i1, _, err := s.InferenceContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	i2, _, err := s.InferenceContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Error("InferenceContext not cached")
	}
	if s.pairs != 2 {
		t.Errorf("pairs = %d", s.pairs)
	}
	if s.Scenario() == nil {
		t.Error("nil scenario")
	}
}
