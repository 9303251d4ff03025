package core

import (
	"context"
	"math"
	"testing"

	"because/internal/bgp"
	"because/internal/stats"
)

func TestCategorizeMeanBands(t *testing.T) {
	tight := func(m float64) stats.HDPI { return stats.HDPI{Lo: m, Hi: m, Mass: 0.95} }
	cases := []struct {
		mean float64
		want Category
	}{
		{0.0, CatHighlyLikelyNot},
		{0.14, CatHighlyLikelyNot},
		{0.15, CatLikelyNot},
		{0.29, CatLikelyNot},
		{0.3, CatUncertain},
		{0.69, CatUncertain},
		{0.7, CatLikely},
		{0.84, CatLikely},
		{0.85, CatHighlyLikely},
		{1.0, CatHighlyLikely},
	}
	for _, c := range cases {
		if got := Categorize(c.mean, tight(c.mean)); got != c.want {
			t.Errorf("Categorize(%g) = %v, want %v", c.mean, got, c.want)
		}
	}
}

func TestCategorizeWideIntervalIsUncertain(t *testing.T) {
	// A recovered prior: mean near 0.5 with an interval spanning nearly
	// everything must be Category 3 — the Figure 9(d) case.
	h := stats.HDPI{Lo: 0.02, Hi: 0.98, Mass: 0.95}
	if got := Categorize(0.5, h); got != CatUncertain {
		t.Errorf("wide interval = %v, want uncertain", got)
	}
}

func TestCategorizeHDPIUpgrades(t *testing.T) {
	// Mean 0.82 (Category 4 band) but the entire interval above 0.85:
	// the interval flag upgrades to 5. (Can occur with strongly skewed
	// marginals where mean < HDPI low.)
	h := stats.HDPI{Lo: 0.86, Hi: 0.99, Mass: 0.95}
	if got := Categorize(0.82, h); got != CatHighlyLikely {
		t.Errorf("skewed upgrade = %v, want 5", got)
	}
	// Interval entirely below 0.15 with a mean in the 2 band: highest of
	// (2, 1) stays 2 — the flag never downgrades.
	h = stats.HDPI{Lo: 0.01, Hi: 0.1, Mass: 0.95}
	if got := Categorize(0.16, h); got != CatLikelyNot {
		t.Errorf("flag downgraded: %v", got)
	}
}

func TestCategoryHelpers(t *testing.T) {
	if CatLikely.String() == "" || Category(7).String() == "" {
		t.Error("String empty")
	}
	if !CatLikely.Positive() || !CatHighlyLikely.Positive() {
		t.Error("4/5 should be positive")
	}
	if CatUncertain.Positive() || CatLikelyNot.Positive() {
		t.Error("1-3 should not be positive")
	}
}

func TestSummarizeAndInfer(t *testing.T) {
	ds := plantedDataset(t)
	res, err := InferContext(context.Background(), ds, Config{Seed: 42, MH: MHConfig{Sweeps: 800, BurnIn: 200}, HMC: HMCConfig{Iterations: 300, BurnIn: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) != 2 {
		t.Fatalf("chains = %d", len(res.Chains))
	}
	if len(res.Summaries) != ds.NumNodes() {
		t.Fatalf("summaries = %d", len(res.Summaries))
	}
	s7, ok := res.Lookup(7)
	if !ok {
		t.Fatal("AS7 missing")
	}
	if !s7.Category.Positive() {
		t.Errorf("planted damper category = %v", s7.Category)
	}
	if s7.PosPaths != 5 || s7.NegPaths != 0 {
		t.Errorf("AS7 paths = %d/%d", s7.PosPaths, s7.NegPaths)
	}
	s9, ok := res.Lookup(9)
	if !ok {
		t.Fatal("AS9 missing")
	}
	if s9.Category.Positive() {
		t.Errorf("clean AS9 category = %v", s9.Category)
	}
	if s9.Certainty <= 0 || s9.Certainty > 1 {
		t.Errorf("certainty = %g", s9.Certainty)
	}
	// Exactly one AS should be flagged positive.
	if got := len(res.Positives()); got != 1 {
		t.Errorf("positives = %d", got)
	}
	counts := res.CategoryCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != ds.NumNodes() {
		t.Errorf("category counts sum to %d", total)
	}
}

func TestInferValidation(t *testing.T) {
	ds := plantedDataset(t)
	if _, err := InferContext(context.Background(), nil, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := InferContext(context.Background(), ds, Config{DisableMH: true, DisableHMC: true}); err == nil {
		t.Error("both samplers disabled accepted")
	}
	// Single-sampler runs work.
	res, err := InferContext(context.Background(), ds, Config{Seed: 1, DisableHMC: true, MH: MHConfig{Sweeps: 100, BurnIn: 20}})
	if err != nil || len(res.Chains) != 1 || res.Chains[0].Method != "mh" {
		t.Errorf("MH-only run: %v", err)
	}
}

func TestSummarizeValidation(t *testing.T) {
	ds := plantedDataset(t)
	if _, err := Summarize(ds, nil, 0.95); err == nil {
		t.Error("no chains accepted")
	}
	c := &Chain{Method: "mh", Nodes: []bgp.ASN{1}}
	if _, err := Summarize(ds, []*Chain{c}, 0.95); err == nil {
		t.Error("mismatched chain accepted")
	}
	full := &Chain{Method: "mh", Nodes: ds.Nodes(), Samples: [][]float64{make([]float64, ds.NumNodes())}}
	if _, err := Summarize(ds, []*Chain{full}, 1.5); err == nil {
		t.Error("bad HDPI mass accepted")
	}
}

func TestPinpointInconsistentDamper(t *testing.T) {
	// The AS-701 scenario: AS 701 damps some neighbors but not others.
	// Positive paths: {vpA, 701, X} — 701 is the only plausible cause but
	// its overall mean stays low because many negative paths also cross it.
	var obs []PathObs
	// Negative paths through 701 (the undamped neighbor side).
	for i := 0; i < 12; i++ {
		obs = append(obs, PathObs{ASNs: []bgp.ASN{bgp.ASN(100 + i), 701, bgp.ASN(200 + i)}, Positive: false})
	}
	// Positive paths through 701 with otherwise clean companions: the
	// companions appear on many negative paths elsewhere (as stub/VP ASes
	// do in the real data), so 701 is the most likely cause on each
	// damped path even though its own mean stays low.
	for i := 0; i < 6; i++ {
		comp := bgp.ASN(300 + i)
		obs = append(obs, PathObs{ASNs: []bgp.ASN{comp, 701, bgp.ASN(400 + i)}, Positive: true})
		for k := 0; k < 15; k++ {
			obs = append(obs, PathObs{ASNs: []bgp.ASN{comp, bgp.ASN(500 + 20*i + k)}, Positive: false})
			obs = append(obs, PathObs{ASNs: []bgp.ASN{bgp.ASN(400 + i), bgp.ASN(1000 + 20*i + k)}, Positive: false})
		}
	}
	ds := mustDataset(t, obs)
	res, err := InferContext(context.Background(), ds, Config{Seed: 11, MH: MHConfig{Sweeps: 1000, BurnIn: 300}, HMC: HMCConfig{Iterations: 400, BurnIn: 150}})
	if err != nil {
		t.Fatal(err)
	}
	s701, ok := res.Lookup(701)
	if !ok {
		t.Fatal("701 missing")
	}
	// The mean must be pulled low by the many negative paths...
	if s701.Mean > 0.6 {
		t.Logf("note: 701 mean = %g (expected lowish)", s701.Mean)
	}
	// ...but the pinpointing pass must still identify it.
	if !s701.Category.Positive() {
		t.Errorf("inconsistent damper not flagged: %+v", s701)
	}
	if !s701.Pinpointed && s701.Mean < 0.7 {
		t.Errorf("701 flagged but not via pinpointing (mean=%g, cat=%v)", s701.Mean, s701.Category)
	}
	if len(res.Pinpointed) == 0 && s701.Mean < 0.7 {
		t.Error("Pinpointed list empty")
	}
}

func TestPinpointLeavesConsistentAlone(t *testing.T) {
	// All positive paths already contain the obvious damper: the pass must
	// not upgrade anyone else.
	ds := plantedDataset(t)
	res, err := InferContext(context.Background(), ds, Config{Seed: 13, MH: MHConfig{Sweeps: 800, BurnIn: 200}, DisableHMC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Summaries {
		if s.Pinpointed {
			t.Errorf("%v wrongly pinpointed", s.ASN)
		}
	}
}

func TestPinpointThresholdDisable(t *testing.T) {
	ds := plantedDataset(t)
	res, err := InferContext(context.Background(), ds, Config{Seed: 13, PinpointThreshold: -1, DisableHMC: true, MH: MHConfig{Sweeps: 200, BurnIn: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pinpointed) != 0 {
		t.Error("pinpointing ran despite negative threshold")
	}
}

func TestCategorizeUncertaintyGuard(t *testing.T) {
	// A marginal spanning nearly the whole unit interval is never decisive,
	// wherever its mean sits: the Figure 9(d) recovered-prior picture.
	wide := stats.HDPI{Lo: 0.02, Hi: 0.99, Mass: 0.95}
	for _, mean := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		if got := Categorize(mean, wide); got != CatUncertain {
			t.Errorf("Categorize(%g, wide) = %v, want uncertain", mean, got)
		}
	}
	// A narrow interval keeps its decisive flag.
	narrow := stats.HDPI{Lo: 0.9, Hi: 0.99, Mass: 0.95}
	if got := Categorize(0.95, narrow); got != CatHighlyLikely {
		t.Errorf("narrow decisive = %v", got)
	}
}

func TestInferMultiChainRHat(t *testing.T) {
	ds := plantedDataset(t)
	res, err := InferContext(context.Background(), ds, Config{Seed: 31, Chains: 3, DisableHMC: true,
		MH: MHConfig{Sweeps: 500, BurnIn: 150}})
	if err != nil {
		t.Fatal(err)
	}
	// 3 MH chains plus nothing else.
	if len(res.Chains) != 3 {
		t.Fatalf("chains = %d", len(res.Chains))
	}
	i7, _ := ds.NodeIndex(7)
	r := res.Summaries[i7].RHat
	if math.IsNaN(r) {
		t.Fatal("RHat not computed with 3 chains")
	}
	if r > 1.3 {
		t.Errorf("damper RHat = %g, chains did not converge", r)
	}
	// Single-chain runs leave RHat as NaN.
	res1, err := InferContext(context.Background(), ds, Config{Seed: 31, DisableHMC: true, MH: MHConfig{Sweeps: 200, BurnIn: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res1.Summaries[i7].RHat) {
		t.Error("single-chain RHat should be NaN")
	}
}
