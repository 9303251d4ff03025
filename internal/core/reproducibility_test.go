package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"because/internal/obs"
)

// This file is the proof obligation of the parallel inference engine: the
// result of Infer must be bit-identical at every worker count. Chains get
// their RNG streams pre-split in configuration order (stats.RNG.Split is
// order-insensitive) and write into pre-assigned slots, so scheduling can
// change only the wall-clock, never a single bit of output. The tests below
// pin that down field-for-field across MH-only, HMC-only and combined runs,
// and hammer the pool under -race.

// fastCfg returns a small-but-real Infer configuration: enough sweeps for
// the samplers to exercise every code path, small enough to run many times.
func fastCfg(seed uint64) Config {
	return Config{
		Seed: seed,
		MH:   MHConfig{Sweeps: 200, BurnIn: 50},
		HMC:  HMCConfig{Iterations: 60, BurnIn: 20, Leapfrog: 6},
	}
}

// f64Equal demands bit-level identity (so NaN == NaN, and -0 != +0):
// "reproducible" here means byte-for-byte, not approximately.
func f64Equal(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sampleMatricesEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if len(a[t]) != len(b[t]) {
			return false
		}
		for i := range a[t] {
			if !f64Equal(a[t][i], b[t][i]) {
				return false
			}
		}
	}
	return true
}

func chainsEqual(t *testing.T, label string, a, b []*Chain) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: chain count %d vs %d", label, len(a), len(b))
	}
	for k := range a {
		ca, cb := a[k], b[k]
		if ca.Method != cb.Method {
			t.Errorf("%s: chain %d method %q vs %q", label, k, ca.Method, cb.Method)
		}
		if len(ca.Nodes) != len(cb.Nodes) {
			t.Fatalf("%s: chain %d node count differs", label, k)
		}
		for i := range ca.Nodes {
			if ca.Nodes[i] != cb.Nodes[i] {
				t.Errorf("%s: chain %d node %d differs", label, k, i)
			}
		}
		if ca.Accepted != cb.Accepted || ca.Proposed != cb.Proposed || ca.Divergent != cb.Divergent {
			t.Errorf("%s: chain %d counters (%d/%d/%d) vs (%d/%d/%d)", label, k,
				ca.Accepted, ca.Proposed, ca.Divergent, cb.Accepted, cb.Proposed, cb.Divergent)
		}
		if !sampleMatricesEqual(ca.Samples, cb.Samples) {
			t.Errorf("%s: chain %d (%s) samples differ", label, k, ca.Method)
		}
	}
}

func summariesEqual(t *testing.T, label string, a, b []NodeSummary) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: summary count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		sa, sb := a[i], b[i]
		switch {
		case sa.ASN != sb.ASN:
			t.Errorf("%s: summary %d ASN %d vs %d", label, i, sa.ASN, sb.ASN)
		case !f64Equal(sa.Mean, sb.Mean):
			t.Errorf("%s: AS%d mean %v vs %v", label, sa.ASN, sa.Mean, sb.Mean)
		case !f64Equal(sa.HDPI.Lo, sb.HDPI.Lo) || !f64Equal(sa.HDPI.Hi, sb.HDPI.Hi) || !f64Equal(sa.HDPI.Mass, sb.HDPI.Mass):
			t.Errorf("%s: AS%d HDPI [%v,%v] vs [%v,%v]", label, sa.ASN,
				sa.HDPI.Lo, sa.HDPI.Hi, sb.HDPI.Lo, sb.HDPI.Hi)
		case !f64Equal(sa.Certainty, sb.Certainty):
			t.Errorf("%s: AS%d certainty differs", label, sa.ASN)
		case sa.Category != sb.Category:
			t.Errorf("%s: AS%d category %v vs %v", label, sa.ASN, sa.Category, sb.Category)
		case sa.Pinpointed != sb.Pinpointed:
			t.Errorf("%s: AS%d pinpointed flag differs", label, sa.ASN)
		case !f64Equal(sa.RHat, sb.RHat):
			t.Errorf("%s: AS%d R-hat %v vs %v", label, sa.ASN, sa.RHat, sb.RHat)
		case sa.PosPaths != sb.PosPaths || sa.NegPaths != sb.NegPaths:
			t.Errorf("%s: AS%d path counts differ", label, sa.ASN)
		}
	}
}

func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	summariesEqual(t, label+"/summaries", a.Summaries, b.Summaries)
	chainsEqual(t, label+"/chains", a.Chains, b.Chains)
	summariesEqual(t, label+"/pinpointed", a.Pinpointed, b.Pinpointed)
}

// TestInferWorkerCountInvariance is the reproducibility harness: for every
// sampler combination, Infer(workers=1) and Infer(workers=N) must agree on
// every chain sample, every summary field, every R-hat and the pinpointing
// outcome — bit for bit.
func TestInferWorkerCountInvariance(t *testing.T) {
	ds := plantedDataset(t)
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"mh-only-3chains", func(c *Config) { c.DisableHMC = true; c.Chains = 3 }},
		{"hmc-only", func(c *Config) { c.DisableMH = true }},
		{"combined-2chains", func(c *Config) { c.Chains = 2 }},
	}
	workerCounts := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			base := fastCfg(77)
			mode.mutate(&base)
			base.Workers = 1
			want, err := InferContext(context.Background(), ds, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				cfg := base
				cfg.Workers = w
				got, err := InferContext(context.Background(), ds, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				resultsEqual(t, fmt.Sprintf("%s/workers=%d", mode.name, w), want, got)
			}
		})
	}
}

// TestInferWorkerInvarianceWithObserver repeats the invariance check with a
// live observer and progress callbacks attached: instrumentation must not
// perturb the sampled streams, and the serialized progress path must not
// deadlock a multi-worker run.
func TestInferWorkerInvarianceWithObserver(t *testing.T) {
	ds := plantedDataset(t)
	run := func(workers int) *Result {
		cfg := fastCfg(31)
		cfg.Chains = 2
		cfg.Workers = workers
		cfg.Obs = obs.New(nil, obs.NewRegistry())
		cfg.ProgressEvery = 25
		var events int
		cfg.Progress = func(p obs.Progress) { events++ }
		res, err := InferContext(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if events == 0 {
			t.Fatalf("workers=%d: progress callback never fired", workers)
		}
		return res
	}
	want := run(1)
	got := run(4)
	resultsEqual(t, "observed/workers=4", want, got)
}

// TestInferSeedSensitivity guards against a degenerate "fix": if chain
// streams were accidentally shared or reset, different seeds could collide.
func TestInferSeedSensitivity(t *testing.T) {
	ds := plantedDataset(t)
	cfgA := fastCfg(1)
	cfgB := fastCfg(2)
	cfgA.DisableHMC, cfgB.DisableHMC = true, true
	a, err := InferContext(context.Background(), ds, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InferContext(context.Background(), ds, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if sampleMatricesEqual(a.Chains[0].Samples, b.Chains[0].Samples) {
		t.Fatal("different seeds produced identical chains")
	}
}

// TestInferMultiChainStreamsDistinct: each MH chain must get its own RNG
// stream — identical chains would make R-hat meaningless.
func TestInferMultiChainStreamsDistinct(t *testing.T) {
	ds := plantedDataset(t)
	cfg := fastCfg(5)
	cfg.DisableHMC = true
	cfg.Chains = 3
	cfg.Workers = 2
	res, err := InferContext(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Chains); i++ {
		for j := i + 1; j < len(res.Chains); j++ {
			if sampleMatricesEqual(res.Chains[i].Samples, res.Chains[j].Samples) {
				t.Fatalf("chains %d and %d drew identical samples", i, j)
			}
		}
	}
}

// TestInferConcurrentRunsSharedObserver stresses the engine the way the
// experiment harness uses it: several Infer calls in flight at once, all
// reporting into ONE observer. Run with -race; each result must still match
// its own workers=1 baseline.
func TestInferConcurrentRunsSharedObserver(t *testing.T) {
	ds := plantedDataset(t)
	shared := obs.New(nil, obs.NewRegistry())

	const runs = 4
	baselines := make([]*Result, runs)
	for i := range baselines {
		cfg := fastCfg(uint64(100 + i))
		cfg.Chains = 2
		cfg.Workers = 1
		res, err := InferContext(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = res
	}

	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := fastCfg(uint64(100 + i))
			cfg.Chains = 2
			cfg.Workers = 2
			cfg.Obs = shared
			results[i], errs[i] = InferContext(context.Background(), ds, cfg)
		}()
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		resultsEqual(t, fmt.Sprintf("concurrent-run-%d", i), baselines[i], results[i])
	}
}

// TestInferTraceWorkerInvariance extends the harness to the trace layer:
// the exported span tree — trace/span IDs, names, nesting, attributes —
// must be identical at every worker count (only the timings may differ),
// with the inference results themselves still bit-identical. This is the
// payoff of pre-creating chain spans in job order before the fan-out.
func TestInferTraceWorkerInvariance(t *testing.T) {
	ds := plantedDataset(t)
	run := func(workers int) (*Result, *obs.TraceExport) {
		cfg := fastCfg(77)
		cfg.Chains = 3
		cfg.Workers = workers
		tr := obs.NewTrace("job", "trace-invariance")
		ctx := obs.ContextWithSpan(context.Background(), tr.Root())
		res, err := InferContext(ctx, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.Root().End()
		return res, tr.Export()
	}
	wantRes, wantTrace := run(1)
	gotRes, gotTrace := run(4)
	resultsEqual(t, "traced/workers=4", wantRes, gotRes)
	if !reflect.DeepEqual(wantTrace.Canonical(), gotTrace.Canonical()) {
		a, _ := json.MarshalIndent(wantTrace.Canonical(), "", "  ")
		b, _ := json.MarshalIndent(gotTrace.Canonical(), "", "  ")
		t.Errorf("canonical traces differ between workers=1 and workers=4:\n%s\n---\n%s", a, b)
	}
	// The tree must contain every pipeline stage.
	names := map[string]bool{}
	var walk func(s *obs.SpanExport)
	walk = func(s *obs.SpanExport) {
		if s == nil {
			return
		}
		names[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(wantTrace.Root)
	for _, want := range []string{"sample", "mh[00]", "mh[02]", "hmc", "summarize", "pinpoint"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}
}
