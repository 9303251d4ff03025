package heuristics

import (
	"math"
	"testing"
	"time"

	"because/internal/beacon"
	"because/internal/bgp"
	"because/internal/collector"
	"because/internal/label"
)

var (
	t0   = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	vpA  = collector.VantagePoint{AS: 1, Project: collector.RIS}
	vpB  = collector.VantagePoint{AS: 2, Project: collector.RouteViews}
	pfxT = bgp.MustPrefix("10.1.1.0/24")
)

func meas(vp collector.VantagePoint, site bgp.ASN, rfd bool, path ...bgp.ASN) label.Measurement {
	return label.Measurement{VP: vp, Site: site, Prefix: pfxT, Path: path, RFD: rfd, PairsTotal: 4}
}

func TestPathRatio(t *testing.T) {
	ms := []label.Measurement{
		meas(vpA, 9, true, 1, 5, 9),
		meas(vpB, 9, true, 2, 5, 9),
		meas(vpA, 8, false, 1, 5, 8),
		meas(vpB, 8, false, 2, 6, 8),
	}
	m1 := pathRatio(ms)
	if got := m1[5]; math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("M1(5) = %g, want 2/3", got)
	}
	if got := m1[6]; got != 0 {
		t.Errorf("M1(6) = %g", got)
	}
	// Origin ASes are excluded from the tomography portion.
	if _, ok := m1[9]; ok {
		t.Error("origin AS scored by M1")
	}
}

func TestAlternativePaths(t *testing.T) {
	// Damped path 1-5-9 (site 9, vpA); alternatives for (site 9, vpA):
	// 1-6-9 and 1-7-9. AS 5 is on no alternative => share 1; AS 1 is on
	// all alternatives => share 0.
	ms := []label.Measurement{
		meas(vpA, 9, true, 1, 5, 9),
		meas(vpA, 9, false, 1, 6, 9),
		meas(vpA, 9, false, 1, 7, 9),
	}
	m2 := alternativePaths(ms)
	if got := m2[5]; got != 1 {
		t.Errorf("M2(5) = %g, want 1", got)
	}
	if got := m2[1]; got != 0 {
		t.Errorf("M2(1) = %g, want 0", got)
	}
	// ASes only on non-damped paths are not scored by M2.
	if _, ok := m2[6]; ok {
		t.Error("AS6 scored by M2")
	}
}

func TestAlternativePathsNoAlternatives(t *testing.T) {
	ms := []label.Measurement{meas(vpA, 9, true, 1, 5, 9)}
	if got := alternativePaths(ms); len(got) != 0 {
		t.Errorf("M2 without alternatives = %v", got)
	}
}

func burstSched() beacon.Schedule {
	return beacon.Schedule{
		Site: 9, Prefix: pfxT, UpdateInterval: time.Minute,
		BurstLen: 40 * time.Minute, BreakLen: 80 * time.Minute, Pairs: 1, Start: t0,
	}
}

func entryAt(at time.Time, path ...bgp.ASN) collector.Entry {
	return collector.Entry{
		VP: vpA, Received: at, Exported: at,
		Update: &bgp.Update{
			ASPath: bgp.Path{Segments: []bgp.Segment{{Type: bgp.SegSequence, ASNs: path}}},
			NLRI:   []bgp.Prefix{pfxT},
		},
	}
}

func TestBurstDistributionDampedVsFlat(t *testing.T) {
	sched := burstSched()
	var entries []collector.Entry
	// Damped stream: announcements only in the first quarter of the burst.
	for m := 0; m < 10; m++ {
		entries = append(entries, entryAt(t0.Add(time.Duration(m)*time.Minute), 1, 5, 9))
	}
	m3 := burstDistribution(entries, []beacon.Schedule{sched}, 40)
	if got := m3[5]; got < 0.8 {
		t.Errorf("damped M3(5) = %g, want near 1", got)
	}

	// Flat stream: announcements all through the burst.
	entries = nil
	for m := 0; m < 39; m += 2 {
		entries = append(entries, entryAt(t0.Add(time.Duration(m)*time.Minute), 1, 6, 9))
	}
	m3 = burstDistribution(entries, []beacon.Schedule{sched}, 40)
	if got := m3[6]; got > 0.3 {
		t.Errorf("flat M3(6) = %g, want near 0", got)
	}
}

func TestBurstDistributionIgnoresOriginAndWithdrawals(t *testing.T) {
	sched := burstSched()
	entries := []collector.Entry{
		entryAt(t0.Add(time.Minute), 1, 5, 9),
		{VP: vpA, Received: t0.Add(2 * time.Minute), Exported: t0.Add(2 * time.Minute),
			Update: &bgp.Update{Withdrawn: []bgp.Prefix{pfxT}}},
	}
	m3 := burstDistribution(entries, []beacon.Schedule{sched}, 40)
	if _, ok := m3[9]; ok {
		t.Error("origin scored by M3")
	}
	if _, ok := m3[5]; !ok {
		t.Error("transit AS not scored")
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	sched := burstSched()
	ms := []label.Measurement{
		meas(vpA, 9, true, 1, 5, 9),
		meas(vpA, 9, false, 1, 6, 9),
		meas(vpB, 9, false, 2, 6, 9),
	}
	var entries []collector.Entry
	for m := 0; m < 10; m++ {
		entries = append(entries, entryAt(t0.Add(time.Duration(m)*time.Minute), 1, 5, 9))
	}
	for m := 0; m < 39; m += 2 {
		entries = append(entries, entryAt(t0.Add(time.Duration(m)*time.Minute), 1, 6, 9))
	}
	scores := Evaluate(Input{Measurements: ms, Entries: entries, Schedules: []beacon.Schedule{sched}}, Config{})
	byASN := make(map[bgp.ASN]Score)
	for _, s := range scores {
		byASN[s.ASN] = s
	}
	if !byASN[5].RFD {
		t.Errorf("damping AS5 not flagged: %+v", byASN[5])
	}
	if byASN[6].RFD {
		t.Errorf("clean AS6 flagged: %+v", byASN[6])
	}
	// Output must be sorted by ASN.
	for i := 1; i < len(scores); i++ {
		if scores[i].ASN <= scores[i-1].ASN {
			t.Fatal("scores not sorted")
		}
	}
}

func TestEvaluateEmptyInput(t *testing.T) {
	if got := Evaluate(Input{}, Config{}); len(got) != 0 {
		t.Errorf("empty input produced %d scores", len(got))
	}
}

func TestThresholdTuning(t *testing.T) {
	ms := []label.Measurement{
		meas(vpA, 9, true, 1, 5, 9),
		meas(vpB, 9, false, 2, 5, 9),
	}
	// M1(5) = 0.5; with threshold 0.4 it flags, with 0.6 it does not.
	lo := Evaluate(Input{Measurements: ms}, Config{Threshold: 0.4})
	hi := Evaluate(Input{Measurements: ms}, Config{Threshold: 0.6})
	find := func(scores []Score, a bgp.ASN) Score {
		for _, s := range scores {
			if s.ASN == a {
				return s
			}
		}
		t.Fatalf("AS%d missing", a)
		return Score{}
	}
	if !find(lo, 5).RFD {
		t.Error("threshold 0.4 did not flag")
	}
	if find(hi, 5).RFD {
		t.Error("threshold 0.6 flagged")
	}
}
