package experiment

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"
	"time"

	"because/internal/obs"
)

// smallSuiteConfig is the golden-test world: the smallScenario parameters,
// expressed as a config so two independent suites can be built from it.
func smallSuiteConfig() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.Seed = 11
	cfg.Topology.Transit = 30
	cfg.Topology.Stubs = 60
	cfg.Sites = 3
	cfg.VPsPerProject = 4
	cfg.RFDShare = 0.5
	cfg.CustomerOnlyDampers = 1
	return cfg
}

// serializeResult renders an inference outcome to canonical bytes: gob of
// every exported field, chains included (gob, unlike JSON, round-trips the
// NaN R-hats of single-chain runs). Two runs of the pipeline are considered
// identical exactly when these bytes match.
func serializeResult(t *testing.T, s *Suite, intervals []time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, iv := range intervals {
		res, ds, err := s.InferenceContext(context.Background(), iv)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res.Summaries); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(res.Pinpointed); err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Chains {
			if err := enc.Encode(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Encode(ds.Nodes()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPipelineGoldenDeterminism runs the full pipeline — world build,
// campaign simulation, labeling, inference — twice from scratch and
// byte-compares the serialized results: the repository's bit-for-bit
// reproduction guarantee, end to end.
func TestPipelineGoldenDeterminism(t *testing.T) {
	intervals := []time.Duration{time.Minute}
	build := func() []byte {
		s, err := NewSuite(smallSuiteConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return serializeResult(t, s, intervals)
	}
	first, second := build(), build()
	if len(first) == 0 {
		t.Fatal("serialized result is empty")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical pipeline runs produced different bytes (%d vs %d)", len(first), len(second))
	}
}

// TestSuitePrewarmParallelDeterminism: fanning the intervals out over the
// worker pool must yield byte-identical results to the strictly sequential
// suite — the experiment-harness analogue of the core reproducibility
// harness. Run with -race to also certify that prewarm's tasks share no
// suite state.
func TestSuitePrewarmParallelDeterminism(t *testing.T) {
	intervals := []time.Duration{1 * time.Minute, 5 * time.Minute}

	seqCfg := smallSuiteConfig()
	seqCfg.Workers = 1
	seq, err := NewSuite(seqCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeResult(t, seq, intervals)

	parCfg := smallSuiteConfig()
	parCfg.Workers = 4
	parallel, err := NewSuite(parCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := parallel.PrewarmContext(context.Background(), intervals); err != nil {
		t.Fatal(err)
	}
	got := serializeResult(t, parallel, intervals)

	if !bytes.Equal(want, got) {
		t.Fatalf("parallel prewarm (workers=4) diverged from sequential run (%d vs %d bytes)", len(want), len(got))
	}
}

// TestSuitePrewarmComputesEachIntervalOnce: prewarm skips intervals that
// are already cached and computes duplicates once, and the getters then hit
// the cache — one campaign and one inference per distinct interval.
func TestSuitePrewarmComputesEachIntervalOnce(t *testing.T) {
	cfg := smallSuiteConfig()
	cfg.Workers = 4
	s, err := NewSuite(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.New(nil, obs.NewRegistry())
	s.Scenario().Obs = observer
	cached, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	intervals := []time.Duration{time.Minute, 5 * time.Minute, time.Minute, 5 * time.Minute}
	if err := s.PrewarmContext(context.Background(), intervals); err != nil {
		t.Fatal(err)
	}
	counts := func() (campaigns, infers float64) {
		snap := scrape(t, observer.Metrics)
		return snap[obs.MetricStageSeconds+`_count{stage="campaign"}`], snap[obs.MetricInferRuns]
	}
	if campaigns, infers := counts(); campaigns != 2 || infers != 2 {
		t.Fatalf("after prewarm: %v campaigns, %v inferences; want 2 of each", campaigns, infers)
	}
	for _, iv := range intervals {
		if _, _, err := s.InferenceContext(context.Background(), iv); err != nil {
			t.Fatal(err)
		}
	}
	run, err := s.IntervalRunContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if run != cached {
		t.Error("prewarm replaced the cached 1m run")
	}
	if campaigns, infers := counts(); campaigns != 2 || infers != 2 {
		t.Fatalf("after the getters: %v campaigns, %v inferences; want 2 of each", campaigns, infers)
	}
}
