package core

import (
	"context"
	"errors"
	"testing"

	"because/internal/obs"
	"because/internal/stats"
)

// The cancellation contract: InferContext stops within one sweep of a
// cancelled context and returns ctx.Err() — and a run that completes under
// a context is bit-identical to one under plain Infer, because the
// per-sweep check never touches the RNG.

func TestInferContextPreCancelled(t *testing.T) {
	ds := plantedDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := InferContext(ctx, ds, fastCfg(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
}

func TestInferContextMidRunCancel(t *testing.T) {
	ds := plantedDataset(t)
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"mh", func(c *Config) { c.DisableHMC = true; c.Chains = 3 }},
		{"hmc", func(c *Config) { c.DisableMH = true }},
		{"combined", func(c *Config) { c.Chains = 2 }},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := fastCfg(9)
			mode.mutate(&cfg)
			cfg.Workers = 2
			cfg.ProgressEvery = 10
			// Cancel from inside the progress stream: deterministic
			// mid-sampling timing, no sleeps.
			cfg.Progress = func(p obs.Progress) { cancel() }
			res, err := InferContext(ctx, ds, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatal("cancelled run returned a result")
			}
		})
	}
}

func TestInferContextCompletedRunBitIdentical(t *testing.T) {
	ds := plantedDataset(t)
	cfg := fastCfg(21)
	cfg.Chains = 2
	want, err := Infer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := InferContext(ctx, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "context-vs-plain", want, got)
}

func TestInferContextNilContext(t *testing.T) {
	ds := plantedDataset(t)
	res, err := InferContext(nil, ds, fastCfg(4)) //nolint:staticcheck // nil ctx tolerance is part of the API contract
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
}

func TestRunSamplersContextPreCancelled(t *testing.T) {
	ds := plantedDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMH(ctx, ds, Config{MH: MHConfig{Sweeps: 50}}, stats.NewRNG(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("MH err = %v, want context.Canceled", err)
	}
	if _, err := RunHMC(ctx, ds, Config{HMC: HMCConfig{Iterations: 20}}, stats.NewRNG(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("HMC err = %v, want context.Canceled", err)
	}
}
