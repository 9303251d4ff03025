package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"because/internal/collector"
	"because/internal/label"
)

// Golden hashes of the measurement half of the pipeline for
// smallSuiteConfig() at the 1-minute campaign: each project's MRT archive
// (as collector.WriteMRT writes it, under the collector's AS 64999 /
// 192.0.2.10 identity) and the labeled paths as label.WriteJSON renders
// them. The simulator, the collector, the codecs and the labeling stage
// must stay byte-identical, so a change here is a behaviour change of
// netsim, router, collector, beacon, label or the bgp/mrt codecs.
//
// The labeler runs on the in-memory feed; the test also reads every
// archive back through collector.ReadMRT, labels the decoded feed and
// checks that it gives the same measurements: the same labels and pair
// counts, and r-deltas within the archive's 1 s timestamp resolution.
var (
	goldenMRTSHA = map[collector.Project]string{
		collector.RIS:        "674ae51fa2c52834aa98396bc445ed8b39c1be097da1d54a9c320352492e3f7a",
		collector.RouteViews: "4d462061e66799b03b2192a0db47cedf73ca2ff0c169bd1e17b7d8243a7305d8",
		collector.Isolario:   "5ced5078e0e75cebf3125f59da5a6bf4186e36fd063bcb938e9db3246ae26348",
	}
	goldenLabelSHA = "37b75c518a93dc004758e2b3fede9d1211f9905db48c4a8bd41bd32bbd1557d4"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestPipelineArchiveGolden(t *testing.T) {
	s, err := NewSuite(smallSuiteConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	byProject := make(map[collector.Project][]collector.Entry)
	for _, e := range run.Entries {
		byProject[e.VP.Project] = append(byProject[e.VP.Project], e)
	}
	var decoded []collector.Entry
	for _, p := range collector.Projects {
		var buf bytes.Buffer
		if err := collector.WriteMRT(&buf, byProject[p]); err != nil {
			t.Fatal(err)
		}
		if got := sha(buf.Bytes()); got != goldenMRTSHA[p] {
			t.Errorf("%s MRT archive sha256 = %s, want %s", p, got, goldenMRTSHA[p])
		}
		es, err := collector.ReadMRT(&buf, p)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, es...)
	}
	checkSameLabels(t, run.Measurements, label.LabelPathsContext(context.Background(), decoded, run.Schedules, label.Config{}))
	var buf bytes.Buffer
	if err := label.WriteJSON(&buf, run.Measurements); err != nil {
		t.Fatal(err)
	}
	if got := sha(buf.Bytes()); got != goldenLabelSHA {
		t.Errorf("labeled paths sha256 = %s, want %s", got, goldenLabelSHA)
	}
}

// checkSameLabels asserts that the measurements labeled from the decoded
// archives match the in-memory ones path by path.
func checkSameLabels(t *testing.T, want, got []label.Measurement) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("archive feed gives %d measurements, in-memory feed %d", len(got), len(want))
	}
	byKey := make(map[string]label.Measurement, len(got))
	for _, m := range got {
		byKey[m.Key()] = m
	}
	for _, w := range want {
		g, ok := byKey[w.Key()]
		switch {
		case !ok:
			t.Errorf("%s: missing from the archive feed", w.Key())
		case g.RFD != w.RFD || g.PairsTotal != w.PairsTotal || g.PairsRFD != w.PairsRFD || len(g.RDeltas) != len(w.RDeltas):
			t.Errorf("%s: archive feed labels rfd=%v pairs=%d/%d rdeltas=%d, in-memory rfd=%v pairs=%d/%d rdeltas=%d",
				w.Key(), g.RFD, g.PairsRFD, g.PairsTotal, len(g.RDeltas), w.RFD, w.PairsRFD, w.PairsTotal, len(w.RDeltas))
		default:
			for k, d := range w.RDeltas {
				if diff := (g.RDeltas[k] - d).Abs(); diff > time.Second {
					t.Errorf("%s: r-delta %d is %v from the archive, %v in memory", w.Key(), k, g.RDeltas[k], d)
				}
			}
		}
	}
}
