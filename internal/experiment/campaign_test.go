package experiment

import (
	"context"
	"testing"
	"time"

	"because/internal/bgp"
	"because/internal/core"
	"because/internal/label"
)

// runSmallCampaign executes a short 1-minute-interval campaign on the
// small scenario; shared by several tests via t.Run subtests would rerun
// it, so callers cache as needed.
func runSmallCampaign(t *testing.T, s *Scenario) *Run {
	t.Helper()
	run, err := s.RunCampaignContext(context.Background(), IntervalCampaign(time.Minute, 2))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunCampaignProducesMeasurements(t *testing.T) {
	s := smallScenario(t)
	run := runSmallCampaign(t, s)
	if len(run.Entries) == 0 {
		t.Fatal("no collector entries")
	}
	if len(run.Measurements) == 0 {
		t.Fatal("no labeled measurements")
	}
	if len(run.Propagation) == 0 {
		t.Fatal("no propagation samples")
	}
	if run.UpdatesSent == 0 {
		t.Fatal("no updates sent")
	}

	// The overwhelming majority of RFD-labeled paths must contain a
	// planted damper. A small remainder is legitimate measurement noise:
	// when the primary path is suppressed, the vantage point rides an
	// alternative path, and the pair's evidence can be attributed to that
	// alternative (the path-change caveat of § 2.3) — noise the Bayesian
	// inference is designed to absorb.
	rfdPaths, withDamper := 0, 0
	for _, m := range run.Measurements {
		if !m.RFD {
			continue
		}
		rfdPaths++
		for _, a := range m.TomographyPath() {
			if _, ok := s.Deployments[a]; ok {
				withDamper++
				break
			}
		}
	}
	if rfdPaths == 0 {
		t.Fatal("no RFD-labeled paths at all")
	}
	if float64(withDamper) < 0.7*float64(rfdPaths) {
		t.Errorf("only %d/%d RFD paths contain a planted damper", withDamper, rfdPaths)
	}
}

func TestRunCampaignLabelsDetectSomeDampers(t *testing.T) {
	s := smallScenario(t)
	run := runSmallCampaign(t, s)
	// At least one planted damp-all AS must be on an RFD-labeled path: the
	// 1-minute interval triggers every parameter preset.
	onRFD := map[bgp.ASN]bool{}
	for _, m := range run.Measurements {
		if m.RFD {
			for _, a := range m.TomographyPath() {
				onRFD[a] = true
			}
		}
	}
	hit := 0
	for _, asn := range s.DetectableDampers() {
		if onRFD[asn] {
			hit++
		}
	}
	if hit == 0 {
		t.Fatalf("no detectable damper appears on any RFD path (dampers=%d, rfd-paths=%d)",
			len(s.DetectableDampers()), len(onRFD))
	}
}

func TestRunDeterministic(t *testing.T) {
	s1 := smallScenario(t)
	s2 := smallScenario(t)
	r1 := runSmallCampaign(t, s1)
	r2 := runSmallCampaign(t, s2)
	if len(r1.Entries) != len(r2.Entries) || r1.UpdatesSent != r2.UpdatesSent {
		t.Fatalf("runs differ: %d/%d entries, %d/%d updates",
			len(r1.Entries), len(r2.Entries), r1.UpdatesSent, r2.UpdatesSent)
	}
	if len(r1.Measurements) != len(r2.Measurements) {
		t.Fatalf("measurements differ: %d vs %d", len(r1.Measurements), len(r2.Measurements))
	}
	for i := range r1.Measurements {
		if r1.Measurements[i].Key() != r2.Measurements[i].Key() ||
			r1.Measurements[i].RFD != r2.Measurements[i].RFD {
			t.Fatalf("measurement %d differs", i)
		}
	}
}

func TestDatasetFromRun(t *testing.T) {
	s := smallScenario(t)
	run := runSmallCampaign(t, s)
	ds, err := run.Dataset(core.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumPaths() != countNonEmpty(run) {
		t.Errorf("paths = %d", ds.NumPaths())
	}
	if ds.NumNodes() == 0 {
		t.Error("no nodes")
	}
	// Origins (beacon sites) never appear as tomography nodes.
	for _, site := range s.Sites {
		if _, ok := ds.NodeIndex(site.ASN); ok {
			t.Errorf("site %v in tomography universe", site.ASN)
		}
	}
}

func countNonEmpty(run *Run) int {
	n := 0
	for _, m := range run.Measurements {
		if len(m.TomographyPath()) > 0 {
			n++
		}
	}
	return n
}

func TestInferOnCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full inference in -short mode")
	}
	s := smallScenario(t)
	run := runSmallCampaign(t, s)
	res, ds, err := run.InferContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != ds.NumNodes() {
		t.Fatalf("summaries = %d", len(res.Summaries))
	}
	// Precision on the planted truth: flagged ASes must overwhelmingly be
	// true dampers (a rare borderline pinpoint on an ambiguous path is the
	// method's known failure mode at this tiny scale).
	fps := 0
	for _, sum := range res.Positives() {
		if _, ok := s.Deployments[sum.ASN]; !ok {
			fps++
			t.Logf("false positive: %v flagged (mean=%.2f, pinpointed=%v)", sum.ASN, sum.Mean, sum.Pinpointed)
		}
	}
	if pos := len(res.Positives()); pos > 0 && float64(fps)/float64(pos) > 0.35 {
		t.Errorf("%d of %d flagged ASes are false positives", fps, pos)
	}
	// Some detectable dampers must be found.
	found := 0
	for _, asn := range s.DetectableDampers() {
		if sum, ok := res.Lookup(uint32(asn)); ok && sum.Category.Positive() {
			found++
		}
	}
	if found == 0 {
		t.Error("no planted damper recovered by inference")
	}
}

func TestMeasuredASes(t *testing.T) {
	s := smallScenario(t)
	run := runSmallCampaign(t, s)
	measured := run.MeasuredASes()
	if len(measured) == 0 {
		t.Fatal("nothing measured")
	}
	for _, site := range s.Sites {
		if measured[site.ASN] {
			t.Errorf("site %v counted as measured", site.ASN)
		}
	}
}

// TestLabelMeasurements checks each model's binarisation of the same
// measurements and the origin-stripping convention: rfd takes the
// signature label, churn marks a path churned when any pair changed.
func TestLabelMeasurements(t *testing.T) {
	run := &Run{Measurements: []label.Measurement{
		{Path: []bgp.ASN{1, 2, 3}, PairsTotal: 10, PairsRFD: 1},             // one change → churned
		{Path: []bgp.ASN{1, 4, 3}, PairsTotal: 10, PairsRFD: 0},             // stable
		{Path: []bgp.ASN{1, 5, 3}, PairsTotal: 10, PairsRFD: 10, RFD: true}, // full signature → both
		{Path: []bgp.ASN{9}, PairsTotal: 10, PairsRFD: 10, RFD: true},       // origin-only → dropped
	}}
	for _, tc := range []struct {
		model   core.Model
		wantPos map[bgp.ASN]int // positive paths per middle AS
	}{
		{core.Model{}, map[bgp.ASN]int{2: 0, 4: 0, 5: 1}},
		{core.Model{Name: "churn"}, map[bgp.ASN]int{2: 1, 4: 0, 5: 1}},
	} {
		ds, err := run.Dataset(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		if ds.NumPaths() != 3 || ds.NumNodes() != 4 {
			t.Fatalf("%+v: %d paths over %d ASes, want 3 over 4 (origins stripped)", tc.model, ds.NumPaths(), ds.NumNodes())
		}
		for asn, want := range tc.wantPos {
			if pos, neg := ds.PathsOf(asn); pos != want || pos+neg != 1 {
				t.Errorf("%+v: AS%d has %d positive of %d paths, want %d of 1", tc.model, asn, pos, pos+neg, want)
			}
		}
	}
}
