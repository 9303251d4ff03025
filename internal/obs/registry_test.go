package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "k", "v")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c_total", "k", "v") != c {
		t.Error("same name+labels returned a different counter")
	}
	if r.Counter("c_total", "k", "other") == c {
		t.Error("different labels shared a counter")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}

	h := r.Histogram("h_seconds", []float64{1, 10}, "stage", "x")
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Errorf("histogram count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("gauge re-registration of a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

// TestConcurrentRegistry exercises handle creation and increments from many
// goroutines; run with -race.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("per_worker_total", "worker", ChainLabel(w)).Inc()
				r.Gauge("g", "worker", ChainLabel(w)).Set(float64(i))
				r.Histogram("h", []float64{10, 100}, "worker", ChainLabel(w)).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*iters {
		t.Errorf("shared counter = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter("per_worker_total", "worker", ChainLabel(w)).Value(); got != iters {
			t.Errorf("worker %d counter = %d, want %d", w, got, iters)
		}
		if got := r.Histogram("h", []float64{10, 100}, "worker", ChainLabel(w)).Count(); got != iters {
			t.Errorf("worker %d histogram count = %d, want %d", w, got, iters)
		}
	}
}

func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricSweeps, "method", "mh", "chain", "0").Add(1875)
	r.Counter(MetricSweeps, "chain", "1", "method", "mh").Add(1875) // label order must not matter
	r.Gauge(MetricAcceptance, "method", "mh", "chain", "0").Set(0.25)
	h := r.Histogram(MetricStageSeconds, []float64{0.1, 1}, "stage", "mh")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE because_sampler_acceptance_rate gauge
because_sampler_acceptance_rate{chain="0",method="mh"} 0.25
# TYPE because_sampler_sweeps_total counter
because_sampler_sweeps_total{chain="0",method="mh"} 1875
because_sampler_sweeps_total{chain="1",method="mh"} 1875
# TYPE because_stage_duration_seconds histogram
because_stage_duration_seconds_bucket{stage="mh",le="0.1"} 1
because_stage_duration_seconds_bucket{stage="mh",le="1"} 2
because_stage_duration_seconds_bucket{stage="mh",le="+Inf"} 3
because_stage_duration_seconds_sum{stage="mh"} 30.55
because_stage_duration_seconds_count{stage="mh"} 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a", "b").Add(3)
	r.Gauge("g").Set(1.25)
	r.Histogram("h", []float64{1}, "s", "x").Observe(0.5)
	snap := r.Snapshot()
	for key, want := range map[string]float64{
		`c_total{a="b"}`: 3,
		"g":              1.25,
		`h_sum{s="x"}`:   0.5,
		`h_count{s="x"}`: 1,
	} {
		if got := snap[key]; got != want {
			t.Errorf("snapshot[%s] = %g, want %g", key, got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}

	var o *Observer
	o.Log(LevelError, "dropped")
	o.Counter("x").Inc()
	o.Gauge("x").Add(1)
	sp, _ := o.StartSpan(context.Background(), "x")
	sp.End()
	if o.Enabled(LevelError) {
		t.Error("nil observer enabled")
	}
	if v := o.Gauge("x").Value(); v != 0 {
		t.Errorf("nil gauge value = %g", v)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", `a"b\c`).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c{k="a\"b\\c"} 1`) {
		t.Errorf("escaping wrong: %s", b.String())
	}
}

func TestGaugeSpecialValues(t *testing.T) {
	r := NewRegistry()
	r.Gauge("inf").Set(math.Inf(1))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "inf +Inf") {
		t.Errorf("infinity rendering wrong: %s", b.String())
	}
}
