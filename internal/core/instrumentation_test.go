package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"because/internal/obs"
	"because/internal/stats"
)

// TestRHatDisagreeingConstantChains: zero within-chain variance with
// non-zero between-chain variance is maximal disagreement, +Inf.
func TestRHatDisagreeingConstantChains(t *testing.T) {
	if got := RHat([][]float64{{1, 1, 1}, {2, 2, 2}}); !math.IsInf(got, 1) {
		t.Errorf("disagreeing constant chains R-hat = %g, want +Inf", got)
	}
}

// TestRHatTooShortChains: the statistic needs at least two samples per
// chain; single-sample chains have no within-chain variance to compare.
func TestRHatTooShortChains(t *testing.T) {
	if got := RHat([][]float64{{1}, {2}}); !math.IsNaN(got) {
		t.Errorf("length-1 chains R-hat = %g, want NaN", got)
	}
	if got := RHat([][]float64{{}, {}}); !math.IsNaN(got) {
		t.Errorf("empty chains R-hat = %g, want NaN", got)
	}
}

// TestESSDegenerateInputs: constant samples carry no autocorrelation
// information (c0 = 0) and tiny inputs skip the estimator — both report n.
func TestESSDegenerateInputs(t *testing.T) {
	constant := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	if got := ESS(constant); got != float64(len(constant)) {
		t.Errorf("constant ESS = %g, want %d", got, len(constant))
	}
	if got := ESS([]float64{1, 2, 3}); got != 3 {
		t.Errorf("n=3 ESS = %g, want 3", got)
	}
	if got := ESS(nil); got != 0 {
		t.Errorf("nil ESS = %g, want 0", got)
	}
}

// TestMHProgressCadence pins the callback contract: one event per
// ProgressEvery sweeps (burn-in included), the final multiple suppressed in
// favor of exactly one completion event with Done == Total.
func TestMHProgressCadence(t *testing.T) {
	ds := plantedDataset(t)
	var events []obs.Progress
	cfg := Config{
		MH:            MHConfig{Sweeps: 150, BurnIn: 50}, // total 200
		ProgressEvery: 50,
		Progress:      func(p obs.Progress) { events = append(events, p) },
	}
	if _, err := RunMH(context.Background(), ds, cfg, stats.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	wantDone := []int{50, 100, 150, 200}
	if len(events) != len(wantDone) {
		t.Fatalf("got %d progress events, want %d: %+v", len(events), len(wantDone), events)
	}
	for i, p := range events {
		if p.Done != wantDone[i] || p.Total != 200 || p.Stage != "mh" {
			t.Errorf("event %d = %+v, want Done=%d Total=200 Stage=mh", i, p, wantDone[i])
		}
		if p.Proposed > 0 && (p.AcceptanceRate() < 0 || p.AcceptanceRate() > 1) {
			t.Errorf("event %d acceptance rate %g out of [0,1]", i, p.AcceptanceRate())
		}
	}
	last := events[len(events)-1]
	if last.Done != last.Total {
		t.Errorf("final event not a completion event: %+v", last)
	}
}

// TestHMCProgressCadence mirrors the MH contract for trajectories.
func TestHMCProgressCadence(t *testing.T) {
	ds := plantedDataset(t)
	var events []obs.Progress
	cfg := Config{
		HMC:           HMCConfig{Iterations: 90, BurnIn: 30}, // total 120
		ProgressEvery: 40,
		Progress:      func(p obs.Progress) { events = append(events, p) },
	}
	if _, err := RunHMC(context.Background(), ds, cfg, stats.NewRNG(4)); err != nil {
		t.Fatal(err)
	}
	wantDone := []int{40, 80, 120}
	if len(events) != len(wantDone) {
		t.Fatalf("got %d progress events, want %d: %+v", len(events), len(wantDone), events)
	}
	for i, p := range events {
		if p.Done != wantDone[i] || p.Total != 120 || p.Stage != "hmc" {
			t.Errorf("event %d = %+v, want Done=%d Total=120 Stage=hmc", i, p, wantDone[i])
		}
	}
}

// TestInferObserverMetrics runs the full pipeline with an observer and pins
// the exact set of series one run reports, labels included: every
// instrument the dashboard depends on is there, and nothing else is (a
// divergence series for MH, say).
func TestInferObserverMetrics(t *testing.T) {
	ds := plantedDataset(t)
	observer := obs.New(nil, obs.NewRegistry())
	cfg := Config{
		Seed:   5,
		Chains: 2,
		MH:     MHConfig{Sweeps: 200, BurnIn: 50},
		HMC:    HMCConfig{Iterations: 100, BurnIn: 25},
		Obs:    observer,
	}
	if _, err := Infer(ds, cfg); err != nil {
		t.Fatal(err)
	}
	snap := observer.Metrics.Snapshot()
	want := []string{
		obs.MetricInferRuns,
		obs.MetricInferNodes,
		obs.MetricInferPaths,
		obs.MetricRHatMax,
		obs.MetricESSMin,
		obs.MetricPoolTasks + `{pool="infer"}`,
		obs.MetricPoolBusy + `{pool="infer"}`,
		obs.MetricChainSeconds + `_count{method="mh"}`,
		obs.MetricChainSeconds + `_sum{method="mh"}`,
		obs.MetricChainSeconds + `_count{method="hmc"}`,
		obs.MetricChainSeconds + `_sum{method="hmc"}`,
		obs.MetricDivergences + `{chain="0",method="hmc"}`,
	}
	for _, series := range []string{`{chain="0",method="mh"}`, `{chain="1",method="mh"}`, `{chain="0",method="hmc"}`} {
		want = append(want,
			obs.MetricSweeps+series,
			obs.MetricAcceptance+series,
			obs.MetricSweepRate+series)
	}
	for _, stage := range []string{"sample", "summarize", "pinpoint"} {
		want = append(want,
			obs.MetricStageSeconds+`_count{stage="`+stage+`"}`,
			obs.MetricStageSeconds+`_sum{stage="`+stage+`"}`)
	}
	for _, series := range want {
		if _, ok := snap[series]; !ok {
			t.Errorf("snapshot missing %q", series)
		}
	}
	for series := range snap {
		if !slices.Contains(want, series) {
			t.Errorf("snapshot has unexpected series %q", series)
		}
	}
	if got := snap[obs.MetricSweeps+`{chain="0",method="mh"}`]; got != 250 {
		t.Errorf("mh sweeps = %g, want 250", got)
	}
	if got := snap[obs.MetricInferRuns]; got != 1 {
		t.Errorf("infer runs = %g, want 1", got)
	}
	if got := snap[obs.MetricRHatMax]; !(got > 0) {
		t.Errorf("rhat_max = %g, want > 0", got)
	}
}

// TestHMCDivergenceCounterMatchesChain forces divergent trajectories with a
// wildly oversized step and checks the counter agrees with Chain.Divergent.
func TestHMCDivergenceCounterMatchesChain(t *testing.T) {
	ds := plantedDataset(t)
	observer := obs.New(nil, obs.NewRegistry())
	cfg := Config{
		HMC: HMCConfig{Iterations: 100, BurnIn: 20, StepSize: 60, Leapfrog: 12},
		Obs: observer,
	}
	c, err := RunHMC(context.Background(), ds, cfg, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.Divergent == 0 {
		t.Fatal("step size 60 produced no divergences; test needs a harsher setting")
	}
	snap := observer.Metrics.Snapshot()
	got := snap[obs.MetricDivergences+`{chain="0",method="hmc"}`]
	if got != float64(c.Divergent) {
		t.Errorf("divergence counter = %g, chain.Divergent = %d", got, c.Divergent)
	}
}

// TestInferESSGaugeMinAcrossAllChains: the ESS floor gauge must be the
// minimum over EVERY chain's per-node ESS, not just the first chain's —
// one badly mixing chain in the ensemble has to drag the gauge down.
func TestInferESSGaugeMinAcrossAllChains(t *testing.T) {
	ds := plantedDataset(t)
	observer := obs.New(nil, obs.NewRegistry())
	// Seed 5 is chosen so the ensemble's ESS floor lives in a chain other
	// than chain 0 — a chains[0]-only implementation reports a different
	// (higher) gauge value and fails this test.
	cfg := Config{
		Seed:   5,
		Chains: 3,
		MH:     MHConfig{Sweeps: 200, BurnIn: 50},
		HMC:    HMCConfig{Iterations: 80, BurnIn: 20},
		Obs:    observer,
	}
	res, err := Infer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Inf(1)
	firstChainMin := math.Inf(1)
	for k, c := range res.Chains {
		for i := 0; i < ds.NumNodes(); i++ {
			e := ESS(c.Marginal(i))
			if e < want {
				want = e
			}
			if k == 0 && e < firstChainMin {
				firstChainMin = e
			}
		}
	}
	got := observer.Metrics.Snapshot()[obs.MetricESSMin]
	if got != want {
		t.Errorf("ess gauge = %g, want min over all chains %g", got, want)
	}
	// Guard the regression this test exists for: the global floor must be
	// strictly below chain 0's own floor, so a chains[0]-only
	// implementation cannot pass the gauge check above by coincidence.
	if !(want < firstChainMin) {
		t.Errorf("global ESS floor %g not below chain 0's floor %g; pick a different seed", want, firstChainMin)
	}
}

// TestInferPoolMetrics: a multi-chain run must account for every chain on
// the "infer" pool (task counter) and leave no worker marked busy, and the
// per-chain duration histogram must see one observation per chain.
func TestInferPoolMetrics(t *testing.T) {
	ds := plantedDataset(t)
	observer := obs.New(nil, obs.NewRegistry())
	cfg := Config{
		Seed:    3,
		Chains:  2,
		Workers: 2,
		MH:      MHConfig{Sweeps: 100, BurnIn: 25},
		HMC:     HMCConfig{Iterations: 40, BurnIn: 10},
		Obs:     observer,
	}
	if _, err := Infer(ds, cfg); err != nil {
		t.Fatal(err)
	}
	snap := observer.Metrics.Snapshot()
	if got := snap[obs.MetricPoolTasks+`{pool="infer"}`]; got != 3 {
		t.Errorf("pool task counter = %g, want 3 (2 MH chains + 1 HMC)", got)
	}
	if got := snap[obs.MetricPoolBusy+`{pool="infer"}`]; got != 0 {
		t.Errorf("busy gauge after Infer = %g, want 0", got)
	}
	if got := snap[obs.MetricChainSeconds+`_count{method="mh"}`]; got != 2 {
		t.Errorf("mh chain histogram count = %g, want 2", got)
	}
	if got := snap[obs.MetricChainSeconds+`_count{method="hmc"}`]; got != 1 {
		t.Errorf("hmc chain histogram count = %g, want 1", got)
	}
}
