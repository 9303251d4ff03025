package churn

import (
	"math"
	"testing"

	"because/internal/bgp"
	"because/internal/core"
	"because/internal/label"
)

func testObs() []core.PathObs {
	var obs []core.PathObs
	for k := 0; k < 30; k++ {
		path := []bgp.ASN{
			bgp.ASN(64500 + k%4),
			bgp.ASN(64600 + (k*3)%5),
			bgp.ASN(64700 + (k*7)%3),
		}
		obs = append(obs, core.PathObs{ASNs: path, Positive: k%3 == 0, Weight: 1 + float64(k%2)})
	}
	return obs
}

func testDataset(t *testing.T) *core.Dataset {
	t.Helper()
	ds, err := core.NewDataset(testObs())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testP(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.05 + 0.9*float64(i)/float64(n)
	}
	return p
}

// TestZeroRatesRecoverDefaultModel pins the degenerate case: with β = 0
// and m = 0 the churn likelihood IS the § 3.1 tomography likelihood, so
// the state must agree with core.LogLik exactly.
func TestZeroRatesRecoverDefaultModel(t *testing.T) {
	ds := testDataset(t)
	p := testP(ds.NumNodes())
	st := Model{}.NewState(ds, p)
	if got, want := st.LogLik(), core.LogLik(ds, p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("churn(0,0) log-lik %g, default model %g", got, want)
	}
}

// TestBackgroundRateShiftsStablePaths checks the likelihood ordering the
// background term exists for: raising β makes churned labels more likely
// and stable labels less likely at a fixed vector.
func TestBackgroundRateShiftsStablePaths(t *testing.T) {
	obs := []core.PathObs{
		{ASNs: []bgp.ASN{64500, 64501}, Positive: true},
		{ASNs: []bgp.ASN{64500, 64502}, Positive: false},
	}
	p := []float64{0.2, 0.2}
	// Isolate the per-path terms with full evaluations over
	// single-observation datasets.
	churned, err := core.NewDataset(obs[:1])
	if err != nil {
		t.Fatal(err)
	}
	stable, err := core.NewDataset(obs[1:])
	if err != nil {
		t.Fatal(err)
	}
	cLow := Model{BackgroundRate: 0.01}.NewState(churned, p).LogLik()
	cHigh := Model{BackgroundRate: 0.4}.NewState(churned, p).LogLik()
	if cHigh <= cLow {
		t.Errorf("churned path: higher β should raise the likelihood (%g vs %g)", cHigh, cLow)
	}
	sLow := Model{BackgroundRate: 0.01}.NewState(stable, p).LogLik()
	sHigh := Model{BackgroundRate: 0.4}.NewState(stable, p).LogLik()
	if sHigh >= sLow {
		t.Errorf("stable path: higher β should lower the likelihood (%g vs %g)", sHigh, sLow)
	}
}

// TestDeltaForMatchesFullRecompute checks the incremental-consistency
// contract of the ModelState interface: DeltaFor must equal the LogLik
// difference of actually applying the move, and Apply must keep the
// caches equal to a fresh state's.
func TestDeltaForMatchesFullRecompute(t *testing.T) {
	ds := testDataset(t)
	m := Model{BackgroundRate: 0.07, MissRate: 0.12}
	st := m.NewState(ds, testP(ds.NumNodes()))
	base := st.LogLik()
	for i := 0; i < ds.NumNodes(); i++ {
		for _, pNew := range []float64{0.01, 0.37, 0.93} {
			delta := st.DeltaFor(i, pNew)
			p2 := append([]float64(nil), st.Probabilities()...)
			p2[i] = pNew
			want := m.NewState(ds, p2).LogLik() - base
			if math.Abs(delta-want) > 1e-9 {
				t.Fatalf("node %d → %g: DeltaFor %g, full recompute %g", i, pNew, delta, want)
			}
		}
	}
	st.Apply(3, 0.81)
	fresh := m.NewState(ds, st.Probabilities())
	if got, want := st.LogLik(), fresh.LogLik(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after Apply: incremental %g, fresh %g", got, want)
	}
}

// TestGradientFiniteDifference validates GradLogPostTheta against central
// finite differences of LogPostTheta in θ space.
func TestGradientFiniteDifference(t *testing.T) {
	ds := testDataset(t)
	m := Model{BackgroundRate: 0.05, MissRate: 0.1}
	prior := core.Prior{Alpha: 0.7, Beta: 1.3}
	n := ds.NumNodes()
	theta := make([]float64, n)
	for i := range theta {
		theta[i] = -1.5 + 0.2*float64(i%7)
	}
	pOf := func(th []float64) []float64 {
		p := make([]float64, len(th))
		for i, v := range th {
			p[i] = core.ClampProb(1 / (1 + math.Exp(-v)))
		}
		return p
	}
	st := m.NewState(ds, pOf(theta))
	grad := make([]float64, n)
	st.GradLogPostTheta(prior, grad)
	const h = 1e-6
	for i := 0; i < n; i++ {
		up := append([]float64(nil), theta...)
		dn := append([]float64(nil), theta...)
		up[i] += h
		dn[i] -= h
		want := (m.NewState(ds, pOf(up)).LogPostTheta(prior) - m.NewState(ds, pOf(dn)).LogPostTheta(prior)) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-3*(1+math.Abs(want)) {
			t.Errorf("grad[%d] = %g, finite difference %g", i, grad[i], want)
		}
	}
}

// TestGradFiniteOnLongStablePath pins the m = 0 stable-path gradient on a
// path long enough for Q' to underflow: 40 ASes at p = 1 (clamped to
// 1-1e-9) give log Q' ≈ -829, past exp's range. Each node's gradient is
// then exactly the prior term minus p_i, under churn as under RFD; the
// ratio form (1-m)Q'/((1-m)Q'+m) evaluated 0/0 and poisoned HMC with NaN.
func TestGradFiniteOnLongStablePath(t *testing.T) {
	path := make([]bgp.ASN, 40)
	for k := range path {
		path[k] = bgp.ASN(64500 + k)
	}
	ds, err := core.NewDataset([]core.PathObs{{ASNs: path}})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, ds.NumNodes())
	for i := range p {
		p[i] = 1
	}
	prior := core.Prior{Alpha: 0.4, Beta: 0.4}
	for _, m := range []core.ObservationModel{Model{}, Model{BackgroundRate: 0.05}, core.RFDModel{}} {
		grad := make([]float64, len(p))
		st := m.NewState(ds, p)
		st.GradLogPostTheta(prior, grad)
		for i, g := range grad {
			pi := st.Probabilities()[i]
			if want := prior.Alpha*(1-pi) - prior.Beta*pi - pi; g != want {
				t.Fatalf("%s %+v: grad[%d] = %g, want %g", m.Name(), m, i, g, want)
			}
		}
	}
}

// TestModelValidate bounds both rates.
func TestModelValidate(t *testing.T) {
	for _, m := range []Model{{}, {BackgroundRate: 0.5}, {MissRate: 0.3}, {BackgroundRate: 0.99, MissRate: 0.99}} {
		if err := m.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", m, err)
		}
	}
	for _, m := range []Model{{BackgroundRate: -0.1}, {BackgroundRate: 1}, {MissRate: -1}, {MissRate: 1}, {BackgroundRate: math.NaN()}, {MissRate: math.NaN()}} {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v: expected a validation error", m)
		}
	}
}

// TestLabelMeasurements checks the any-pair-changed binarisation and the
// origin-stripping convention.
func TestLabelMeasurements(t *testing.T) {
	ms := []label.Measurement{
		{Path: []bgp.ASN{1, 2, 3}, PairsTotal: 10, PairsRFD: 1},  // one change → churned
		{Path: []bgp.ASN{1, 4, 3}, PairsTotal: 10, PairsRFD: 0},  // stable
		{Path: []bgp.ASN{1, 5, 3}, PairsTotal: 10, PairsRFD: 10}, // full signature → churned
		{Path: []bgp.ASN{9}, PairsTotal: 10, PairsRFD: 10},       // origin-only → dropped
	}
	obs := LabelMeasurements(ms)
	if len(obs) != 3 {
		t.Fatalf("got %d observations, want 3", len(obs))
	}
	wantPos := []bool{true, false, true}
	for i, o := range obs {
		if o.Positive != wantPos[i] {
			t.Errorf("obs %d positive = %t, want %t", i, o.Positive, wantPos[i])
		}
		if len(o.ASNs) != 2 {
			t.Errorf("obs %d kept %d ASes, want 2 (origin stripped)", i, len(o.ASNs))
		}
	}
}
