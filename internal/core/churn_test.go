package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"because/internal/bgp"
)

// churnObs is a small weighted dataset for the churn-model tests: 30
// three-hop paths over 12 ASes, every third path churned.
func churnObs() []PathObs {
	var obs []PathObs
	for k := 0; k < 30; k++ {
		path := []bgp.ASN{
			bgp.ASN(64500 + k%4),
			bgp.ASN(64600 + (k*3)%5),
			bgp.ASN(64700 + (k*7)%3),
		}
		obs = append(obs, PathObs{ASNs: path, Positive: k%3 == 0, Weight: 1 + float64(k%2)})
	}
	return obs
}

func churnP(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.05 + 0.9*float64(i)/float64(n)
	}
	return p
}

// churnModel is a churn model at background rate bg and miss rate m.
func churnModel(bg, m float64) Model {
	return Model{Name: "churn", BackgroundRate: bg, MissRate: m}
}

// TestZeroRatesRecoverDefaultModel pins the degenerate case: with β = 0
// and m = 0 the churn likelihood IS the § 3.1 tomography likelihood, so
// both samplers draw the default model's chains bit for bit; only the
// result's model name differs.
func TestZeroRatesRecoverDefaultModel(t *testing.T) {
	ds := mustDataset(t, churnObs())
	cfg := fastCfg(13)
	cfg.Chains = 2
	want, err := InferContext(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = churnModel(0, 0)
	got, err := InferContext(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Model != "rfd" || got.Model != "churn" {
		t.Errorf("result models %q, %q; want rfd, churn", want.Model, got.Model)
	}
	resultsEqual(t, "churn(0,0)", want, got)
}

// TestBackgroundRateShiftsStablePaths checks the likelihood ordering the
// background term exists for: raising β makes churned labels more likely
// and stable labels less likely at a fixed vector.
func TestBackgroundRateShiftsStablePaths(t *testing.T) {
	p := []float64{0.2, 0.2}
	// Isolate the per-path terms with full evaluations over
	// single-observation datasets.
	churned := mustDataset(t, []PathObs{{ASNs: []bgp.ASN{64500, 64501}, Positive: true}})
	stable := mustDataset(t, []PathObs{{ASNs: []bgp.ASN{64500, 64502}, Positive: false}})
	logLik := func(ds *Dataset, bg float64) float64 { return newLikState(ds, p, churnModel(bg, 0)).LogLik() }
	if cLow, cHigh := logLik(churned, 0.01), logLik(churned, 0.4); cHigh <= cLow {
		t.Errorf("churned path: higher β should raise the likelihood (%g vs %g)", cHigh, cLow)
	}
	if sLow, sHigh := logLik(stable, 0.01), logLik(stable, 0.4); sHigh >= sLow {
		t.Errorf("stable path: higher β should lower the likelihood (%g vs %g)", sHigh, sLow)
	}
}

// TestDeltaForMatchesFullRecompute checks incremental consistency under a
// background rate: DeltaFor must equal the LogLik difference of actually
// applying the move, and Apply must keep the caches equal to a fresh
// state's.
func TestDeltaForMatchesFullRecompute(t *testing.T) {
	ds := mustDataset(t, churnObs())
	m := churnModel(0.07, 0.12)
	st := newLikState(ds, churnP(ds.NumNodes()), m)
	base := st.LogLik()
	for i := 0; i < ds.NumNodes(); i++ {
		for _, pNew := range []float64{0.01, 0.37, 0.93} {
			delta := st.DeltaFor(i, pNew)
			p2 := append([]float64(nil), st.p...)
			p2[i] = pNew
			want := newLikState(ds, p2, m).LogLik() - base
			if math.Abs(delta-want) > 1e-9 {
				t.Fatalf("node %d → %g: DeltaFor %g, full recompute %g", i, pNew, delta, want)
			}
		}
	}
	st.Apply(3, 0.81)
	fresh := newLikState(ds, st.p, m)
	if got, want := st.LogLik(), fresh.LogLik(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after Apply: incremental %g, fresh %g", got, want)
	}
}

// TestGradientFiniteDifference validates the leapfrog passes' gradient
// under a background rate against central finite differences of
// LogPostTheta in θ space.
func TestGradientFiniteDifference(t *testing.T) {
	ds := mustDataset(t, churnObs())
	m := churnModel(0.05, 0.1)
	prior := Prior{Alpha: 0.7, Beta: 1.3}
	n := ds.NumNodes()
	theta := make([]float64, n)
	for i := range theta {
		theta[i] = -1.5 + 0.2*float64(i%7)
	}
	pOf := func(th []float64) []float64 {
		p := make([]float64, len(th))
		for i, v := range th {
			p[i] = clampProb(1 / (1 + math.Exp(-v)))
		}
		return p
	}
	grad := newLikState(ds, pOf(theta), m).MoveTo(prior, theta)
	const h = 1e-6
	for i := 0; i < n; i++ {
		up := append([]float64(nil), theta...)
		dn := append([]float64(nil), theta...)
		up[i] += h
		dn[i] -= h
		want := (newLikState(ds, pOf(up), m).LogPostTheta(prior) - newLikState(ds, pOf(dn), m).LogPostTheta(prior)) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-3*(1+math.Abs(want)) {
			t.Errorf("grad[%d] = %g, finite difference %g", i, grad[i], want)
		}
	}
}

// TestGradFiniteOnLongStablePath pins the m = 0 stable-path gradient on a
// path long enough for Q' to underflow: 40 ASes at θ = 36 (p clamped to
// 1-1e-9) give log Q' ≈ -829, past exp's range. Each node's gradient is
// then exactly the prior term minus p_i, under churn as under RFD; the
// ratio form (1-m)Q'/((1-m)Q'+m) evaluated 0/0 and poisoned HMC with NaN.
func TestGradFiniteOnLongStablePath(t *testing.T) {
	path := make([]bgp.ASN, 40)
	for k := range path {
		path[k] = bgp.ASN(64500 + k)
	}
	ds := mustDataset(t, []PathObs{{ASNs: path}})
	p, theta := make([]float64, ds.NumNodes()), make([]float64, ds.NumNodes())
	for i := range p {
		p[i], theta[i] = 1, 36
	}
	prior := Prior{Alpha: 0.4, Beta: 0.4}
	for _, m := range []Model{churnModel(0, 0), churnModel(0.05, 0), {}} {
		st := newLikState(ds, p, m)
		grad := st.MoveTo(prior, theta)
		for i, g := range grad {
			pi := st.p[i]
			if want := prior.Alpha*(1-pi) - prior.Beta*pi - pi; g != want {
				t.Fatalf("%+v: grad[%d] = %g, want %g", m, i, g, want)
			}
		}
	}
}

// TestModelValidate bounds both rates and the names, and accepts a
// background rate only under the churn model.
func TestModelValidate(t *testing.T) {
	for _, m := range []Model{
		{}, {Name: "rfd"}, {Name: "churn"}, {MissRate: 0.3}, {Name: "rfd", MissRate: 0.99},
		churnModel(0.5, 0), churnModel(0.99, 0.99),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", m, err)
		}
	}
	for _, m := range []Model{
		churnModel(-0.1, 0), churnModel(1, 0), churnModel(0, -1), churnModel(0, 1),
		churnModel(math.NaN(), 0), churnModel(0, math.NaN()), {MissRate: math.NaN()},
		{Name: "rov"}, {Name: "RFD"}, {BackgroundRate: 0.1}, {Name: "rfd", BackgroundRate: 0.1},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v: expected a validation error", m)
		}
	}
}

// churnInferConfig is a fast-but-complete Infer configuration drawing
// against the churn model: both samplers, two MH chains, non-zero
// background and miss rates so every churn-specific likelihood branch
// participates.
func churnInferConfig(seed uint64, workers int) Config {
	cfg := fastCfg(seed)
	cfg.Chains = 2
	cfg.Workers = workers
	cfg.Model = churnModel(0.08, 0.04)
	return cfg
}

// TestChurnWorkerCountInvariance extends the reproducibility harness's
// bit-identity guarantee to the churn model: Float64bits-equal samples
// and summaries at every worker count.
func TestChurnWorkerCountInvariance(t *testing.T) {
	ds := mustDataset(t, churnObs())
	base, err := InferContext(context.Background(), ds, churnInferConfig(17, 1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Model != "churn" {
		t.Fatalf("result model = %q, want churn", base.Model)
	}
	for _, workers := range []int{2, 4, 0} {
		got, err := InferContext(context.Background(), ds, churnInferConfig(17, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		resultsEqual(t, fmt.Sprintf("churn/workers=%d", workers), base, got)
	}
}

// TestChurnSeedSensitivity guards against a degenerate sampler: different
// seeds must produce different chains.
func TestChurnSeedSensitivity(t *testing.T) {
	ds := mustDataset(t, churnObs())
	a, err := InferContext(context.Background(), ds, churnInferConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := InferContext(context.Background(), ds, churnInferConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if f64Equal(a.Chains[0].Samples[0][0], b.Chains[0].Samples[0][0]) &&
		f64Equal(a.Chains[0].Samples[1][0], b.Chains[0].Samples[1][0]) {
		t.Fatal("different seeds produced identical leading samples")
	}
}
