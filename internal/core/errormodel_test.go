package core

import (
	"context"
	"math"
	"testing"

	"because/internal/bgp"
	"because/internal/stats"
)

// errLogLik evaluates the § 7.2 likelihood through the model API, exactly
// as the samplers do.
func errLogLik(ds *Dataset, p []float64, missRate float64) float64 {
	return RFDModel{MissRate: missRate}.NewState(ds, p).LogLik()
}

func TestErrorLikelihoodReducesToExact(t *testing.T) {
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{1, 2}, Positive: true},
		{ASNs: []bgp.ASN{2, 3}, Positive: false},
	})
	p := []float64{0.3, 0.5, 0.2}
	if a, b := LogLik(ds, p), errLogLik(ds, p, 0); a != b {
		t.Errorf("miss rate 0 differs: %g vs %g", a, b)
	}
}

func TestErrorLikelihoodHandComputation(t *testing.T) {
	// One positive path {A}, one negative path {A}: with p_A = p and miss
	// rate m, logL = log((1-m)p) + log((1-p) + m·p).
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{1}, Positive: true},
		{ASNs: []bgp.ASN{1}, Positive: false, Weight: 1},
	})
	// NewDataset forbids duplicate ASes per path, not across paths; build
	// with two observations of the same single-node path.
	p := 0.4
	m := 0.2
	want := math.Log((1-m)*p) + math.Log((1-p)+m*p)
	if got := errLogLik(ds, []float64{p}, m); math.Abs(got-want) > 1e-12 {
		t.Errorf("error loglik = %g, want %g", got, want)
	}
}

func TestErrorModelDeltaConsistent(t *testing.T) {
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{1, 2, 3}, Positive: true},
		{ASNs: []bgp.ASN{2, 3}, Positive: false},
		{ASNs: []bgp.ASN{1}, Positive: false},
	})
	st := newLikState(ds, []float64{0.2, 0.5, 0.7}, 0.15)
	base := st.LogLik()
	for i := 0; i < 3; i++ {
		for _, pNew := range []float64{0.1, 0.6, 0.9} {
			delta := st.DeltaFor(i, pNew)
			p2 := append([]float64(nil), st.p...)
			p2[i] = pNew
			want := errLogLik(ds, p2, 0.15) - base
			if math.Abs(delta-want) > 1e-9 {
				t.Fatalf("delta(%d -> %g) = %g, want %g", i, pNew, delta, want)
			}
		}
	}
}

func TestErrorModelGradient(t *testing.T) {
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{1, 2, 3}, Positive: true},
		{ASNs: []bgp.ASN{2, 3}, Positive: false},
		{ASNs: []bgp.ASN{1}, Positive: false},
	})
	prior := Prior{Alpha: 0.8, Beta: 1.1}
	theta := []float64{-0.5, 0.2, 0.9}
	const m = 0.2
	pOf := func(th []float64) []float64 {
		p := make([]float64, len(th))
		for i := range th {
			p[i] = 1 / (1 + math.Exp(-th[i]))
		}
		return p
	}
	st := newLikState(ds, pOf(theta), m)
	grad := make([]float64, len(theta))
	st.GradLogPostTheta(prior, grad)
	const h = 1e-6
	for i := range theta {
		up := append([]float64(nil), theta...)
		dn := append([]float64(nil), theta...)
		up[i] += h
		dn[i] -= h
		stUp := newLikState(ds, pOf(up), m)
		stDn := newLikState(ds, pOf(dn), m)
		want := (stUp.LogPostTheta(prior) - stDn.LogPostTheta(prior)) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("grad[%d] = %g, finite diff %g", i, grad[i], want)
		}
	}
}

func TestErrorModelToleratesNoisyLabels(t *testing.T) {
	// Plant a damper, then corrupt 25% of its positive paths to negative
	// (the § 7.2 failure mode: missed signatures). Exact inference is
	// dragged down by the contradictions; the error-aware likelihood keeps
	// the damper's posterior decisively high.
	rng := stats.NewRNG(4)
	var obs []PathObs
	for i := 0; i < 40; i++ {
		companion := bgp.ASN(100 + i%20)
		positive := true
		if i%4 == 0 {
			positive = false // corrupted label
		}
		obs = append(obs, PathObs{ASNs: []bgp.ASN{companion, 7}, Positive: positive})
	}
	// Clean negatives elsewhere exonerate the companions.
	for i := 0; i < 20; i++ {
		obs = append(obs, PathObs{ASNs: []bgp.ASN{bgp.ASN(100 + i), bgp.ASN(200 + i)}, Positive: false})
	}
	_ = rng
	ds := mustDataset(t, obs)

	exact, err := RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 800, BurnIn: 200}}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	robust, err := RunMH(context.Background(), ds, Config{Model: RFDModel{MissRate: 0.25}, MH: MHConfig{Sweeps: 800, BurnIn: 200}}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	i7, _ := ds.NodeIndex(7)
	exactMean := stats.Mean(exact.Marginal(i7))
	robustMean := stats.Mean(robust.Marginal(i7))
	if robustMean <= exactMean {
		t.Errorf("error model did not help: exact %.2f vs robust %.2f", exactMean, robustMean)
	}
	if robustMean < 0.8 {
		t.Errorf("robust mean = %.2f, want decisive", robustMean)
	}
}

func TestMissRateValidation(t *testing.T) {
	ds := mustDataset(t, []PathObs{{ASNs: []bgp.ASN{1}, Positive: true}})
	for _, m := range []float64{-0.1, 1, math.NaN()} {
		if _, err := RunMH(context.Background(), ds, Config{Model: RFDModel{MissRate: m}}, stats.NewRNG(1)); err == nil {
			t.Errorf("MH miss rate %g accepted", m)
		}
	}
	if _, err := RunHMC(context.Background(), ds, Config{Model: RFDModel{MissRate: 1.5}}, stats.NewRNG(1)); err == nil {
		t.Error("HMC miss rate 1.5 accepted")
	}
}

func TestInferWithMissRate(t *testing.T) {
	ds := plantedDataset(t)
	res, err := Infer(ds, Config{Seed: 21, Model: RFDModel{MissRate: 0.1},
		MH: MHConfig{Sweeps: 400, BurnIn: 100}, HMC: HMCConfig{Iterations: 150, BurnIn: 50}})
	if err != nil {
		t.Fatal(err)
	}
	s7, ok := res.Lookup(7)
	if !ok || !s7.Category.Positive() {
		t.Errorf("damper lost under error model: %+v", s7)
	}
}
