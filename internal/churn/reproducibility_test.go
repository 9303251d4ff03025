package churn

import (
	"context"
	"math"
	"testing"

	"because/internal/core"
)

// churnInferConfig is a fast-but-complete Infer configuration drawing
// against the churn model: both samplers, two MH chains, non-zero
// background and miss rates so every churn-specific likelihood branch
// participates.
func churnInferConfig(seed uint64, workers int) core.Config {
	return core.Config{
		Seed:    seed,
		Chains:  2,
		Workers: workers,
		Model:   Model{BackgroundRate: 0.08, MissRate: 0.04},
		MH:      core.MHConfig{Sweeps: 200, BurnIn: 50},
		HMC:     core.HMCConfig{Iterations: 60, BurnIn: 20, Leapfrog: 6},
	}
}

// TestChurnWorkerCountInvariance extends the core reproducibility
// harness's bit-identity guarantee to the churn model: chains drawn
// through the ObservationModel interface must produce Float64bits-equal
// samples at every worker count.
func TestChurnWorkerCountInvariance(t *testing.T) {
	ds, err := core.NewDataset(testObs())
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.InferContext(context.Background(), ds, churnInferConfig(17, 1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Model != "churn" {
		t.Fatalf("result model = %q, want churn", base.Model)
	}
	for _, workers := range []int{2, 4, 0} {
		got, err := core.InferContext(context.Background(), ds, churnInferConfig(17, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertBitIdentical(t, workers, base, got)
	}
}

func assertBitIdentical(t *testing.T, workers int, want, got *core.Result) {
	t.Helper()
	if len(want.Chains) != len(got.Chains) {
		t.Fatalf("workers=%d: %d chains vs %d", workers, len(got.Chains), len(want.Chains))
	}
	for c := range want.Chains {
		w, g := want.Chains[c], got.Chains[c]
		if w.Method != g.Method || w.Accepted != g.Accepted || w.Proposed != g.Proposed {
			t.Fatalf("workers=%d chain %d: counters differ (%s %d/%d vs %s %d/%d)",
				workers, c, g.Method, g.Accepted, g.Proposed, w.Method, w.Accepted, w.Proposed)
		}
		if len(w.Samples) != len(g.Samples) {
			t.Fatalf("workers=%d chain %d: %d samples vs %d", workers, c, len(g.Samples), len(w.Samples))
		}
		for s := range w.Samples {
			for i := range w.Samples[s] {
				if math.Float64bits(w.Samples[s][i]) != math.Float64bits(g.Samples[s][i]) {
					t.Fatalf("workers=%d chain %d sample %d node %d: %x vs %x",
						workers, c, s, i,
						math.Float64bits(g.Samples[s][i]), math.Float64bits(w.Samples[s][i]))
				}
			}
		}
	}
	for i := range want.Summaries {
		if math.Float64bits(want.Summaries[i].Mean) != math.Float64bits(got.Summaries[i].Mean) {
			t.Fatalf("workers=%d summary %d: mean bits differ", workers, i)
		}
	}
}

// TestChurnSeedSensitivity guards against a degenerate sampler: different
// seeds must produce different chains.
func TestChurnSeedSensitivity(t *testing.T) {
	ds, err := core.NewDataset(testObs())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.InferContext(context.Background(), ds, churnInferConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.InferContext(context.Background(), ds, churnInferConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Chains[0].Samples[0][0]) == math.Float64bits(b.Chains[0].Samples[0][0]) &&
		math.Float64bits(a.Chains[0].Samples[1][0]) == math.Float64bits(b.Chains[0].Samples[1][0]) {
		t.Fatal("different seeds produced identical leading samples")
	}
}
