package experiment

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"because/internal/obs"
)

// sweepsRecorded sums the sampler sweep counters over every chain.
func sweepsRecorded(t *testing.T, o *obs.Observer) float64 {
	t.Helper()
	total := 0.0
	for name, v := range scrape(t, o.Metrics) {
		if strings.HasPrefix(name, obs.MetricSweeps) {
			total += v
		}
	}
	return total
}

// TestTab4PrecisionRecallHonoursCancellation: the caller's ctx reaches the
// suite's inference, so a cancelled ctx returns context.Canceled before a
// single sampler sweep runs — and the cancelled slot is not cached, so the
// next caller still gets a real result.
func TestTab4PrecisionRecallHonoursCancellation(t *testing.T) {
	s, err := NewSuite(smallSuiteConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.New(nil, obs.NewRegistry())
	s.Scenario().Obs = observer
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Tab4PrecisionRecallContext(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := sweepsRecorded(t, observer); n != 0 {
		t.Fatalf("%v sampler sweeps ran under a cancelled ctx", n)
	}
	if _, _, err := s.InferenceContext(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	if sweepsRecorded(t, observer) == 0 {
		t.Fatalf("no %s series after a live inference: the check above is vacuous", obs.MetricSweeps)
	}
}

// TestIntervalRunContextTracesCampaign: the leader's ctx reaches the
// campaign, so its trace records the campaign span.
func TestIntervalRunContextTracesCampaign(t *testing.T) {
	s, err := NewSuite(smallSuiteConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("test", "interval-run")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	if _, err := s.IntervalRunContext(ctx, time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Export().Root.Children {
		if c.Name == "campaign" {
			return
		}
	}
	t.Fatal("the leader's trace holds no campaign span")
}

// TestTab4InferencesUseScenarioObserver: both of Table 4's inferences —
// the RFD run and the ROV benchmark — report to the scenario's observer.
func TestTab4InferencesUseScenarioObserver(t *testing.T) {
	s, err := NewSuite(smallSuiteConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.New(nil, obs.NewRegistry())
	s.Scenario().Obs = observer
	if _, err := Tab4PrecisionRecallContext(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if n := scrape(t, observer.Metrics)[obs.MetricInferRuns]; n != 2 {
		t.Fatalf("%s = %v, want 2", obs.MetricInferRuns, n)
	}
}

// scrape parses the registry's Prometheus exposition into a series →
// value map: counters and gauges by series, histograms by their
// name_sum / name_count series (bucket lines are skipped).
func scrape(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i > 0 && !strings.HasPrefix(line, "#") && !strings.Contains(line[:i], "_bucket{") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			out[line[:i]] = v
		}
	}
	return out
}
