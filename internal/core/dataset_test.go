package core

import (
	"math"
	"testing"

	"because/internal/bgp"
)

func mustDataset(t *testing.T, obs []PathObs) *Dataset {
	t.Helper()
	ds, err := NewDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewDatasetBasics(t *testing.T) {
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{1, 2, 3}, Positive: true},
		{ASNs: []bgp.ASN{1, 4}, Positive: false},
	})
	if ds.NumNodes() != 4 {
		t.Errorf("nodes = %d", ds.NumNodes())
	}
	if ds.NumPaths() != 2 {
		t.Errorf("paths = %d", ds.NumPaths())
	}
	if got := ds.PositiveShare(); got != 0.5 {
		t.Errorf("positive share = %g", got)
	}
	pos, neg := ds.PathsOf(1)
	if pos != 1 || neg != 1 {
		t.Errorf("AS1 paths = %d/%d", pos, neg)
	}
	pos, neg = ds.PathsOf(3)
	if pos != 1 || neg != 0 {
		t.Errorf("AS3 paths = %d/%d", pos, neg)
	}
	if pos, neg = ds.PathsOf(99); pos != 0 || neg != 0 {
		t.Error("unknown AS has paths")
	}
	if _, ok := ds.NodeIndex(4); !ok {
		t.Error("AS4 missing from index")
	}
	if got := len(ds.PositivePaths()); got != 1 {
		t.Errorf("positive paths = %d", got)
	}
}

func TestNewDatasetRejectsBadInput(t *testing.T) {
	if _, err := NewDataset([]PathObs{{}}); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := NewDataset([]PathObs{{ASNs: []bgp.ASN{1, 2, 1}}}); err == nil {
		t.Error("repeated AS accepted")
	}
	if _, err := NewDataset([]PathObs{{ASNs: []bgp.ASN{1}, Weight: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestLogLikMatchesHandComputation(t *testing.T) {
	// One negative path {A}, one positive path {A, B}.
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{10}, Positive: false},
		{ASNs: []bgp.ASN{10, 20}, Positive: true},
	})
	pA, pB := 0.3, 0.6
	iA, _ := ds.NodeIndex(10)
	iB, _ := ds.NodeIndex(20)
	p := make([]float64, 2)
	p[iA], p[iB] = pA, pB
	want := math.Log(1-pA) + math.Log(1-(1-pA)*(1-pB))
	if got := LogLik(ds, p); math.Abs(got-want) > 1e-9 {
		t.Errorf("LogLik = %g, want %g", got, want)
	}
	// Linear-space likelihood must agree through exp.
	if got := LinearLik(ds, p); math.Abs(got-math.Exp(want)) > 1e-12 {
		t.Errorf("LinearLik = %g, want %g", got, math.Exp(want))
	}
}

func TestLogLikWeights(t *testing.T) {
	single := mustDataset(t, []PathObs{{ASNs: []bgp.ASN{1}, Positive: true}})
	double := mustDataset(t, []PathObs{{ASNs: []bgp.ASN{1}, Positive: true, Weight: 2}})
	p := []float64{0.4}
	if got, want := LogLik(double, p), 2*LogLik(single, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted loglik = %g, want %g", got, want)
	}
}

func TestLinearLikUnderflowsWhereLogSurvives(t *testing.T) {
	// 600 negative single-node paths at p=0.9: linear product is
	// 0.1^600 = 0 in float64, log space stays finite. This is the reason
	// the engine works in log space.
	var obs []PathObs
	for i := 0; i < 600; i++ {
		obs = append(obs, PathObs{ASNs: []bgp.ASN{bgp.ASN(i + 1)}, Positive: false})
	}
	ds := mustDataset(t, obs)
	p := make([]float64, 600)
	for i := range p {
		p[i] = 0.9
	}
	if got := LinearLik(ds, p); got != 0 {
		t.Errorf("LinearLik = %g, expected underflow to 0", got)
	}
	if got := LogLik(ds, p); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("LogLik = %g, expected finite", got)
	}
}

func TestIncrementalDeltaMatchesFullRecompute(t *testing.T) {
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{1, 2, 3}, Positive: true},
		{ASNs: []bgp.ASN{2, 3}, Positive: false},
		{ASNs: []bgp.ASN{1, 3}, Positive: true},
		{ASNs: []bgp.ASN{1}, Positive: false},
	})
	p := []float64{0.2, 0.5, 0.7}
	st := newLikState(ds, p, Model{})
	base := st.LogLik()
	for i := 0; i < 3; i++ {
		for _, pNew := range []float64{0.1, 0.45, 0.9} {
			delta := st.DeltaFor(i, pNew)
			p2 := append([]float64(nil), st.p...)
			p2[i] = pNew
			want := LogLik(ds, p2) - base
			if math.Abs(delta-want) > 1e-9 {
				t.Fatalf("delta(%d -> %g) = %g, want %g", i, pNew, delta, want)
			}
		}
	}
	// Applying a move keeps the cache consistent.
	st.Apply(1, 0.9)
	if got, want := st.LogLik(), LogLik(ds, st.p); math.Abs(got-want) > 1e-9 {
		t.Errorf("after apply: %g vs %g", got, want)
	}
}

func TestLog1mexp(t *testing.T) {
	cases := []float64{-1e-10, -0.1, -0.5, -1, -5, -50}
	for _, x := range cases {
		// Reference via expm1 keeps precision for small |x| where the
		// naive log(1-exp(x)) loses digits.
		want := math.Log(-math.Expm1(x))
		got := log1mExp(x)
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Errorf("log1mExp(%g) = %g, want %g", x, got, want)
		}
	}
	if !math.IsInf(log1mExp(0), -1) {
		t.Error("log1mExp(0) should be -Inf")
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	ds := mustDataset(t, []PathObs{
		{ASNs: []bgp.ASN{1, 2, 3}, Positive: true},
		{ASNs: []bgp.ASN{2, 3}, Positive: false},
		{ASNs: []bgp.ASN{1}, Positive: true},
	})
	prior := Prior{Alpha: 0.7, Beta: 1.3}
	theta := []float64{-0.3, 0.4, 1.1}
	n := len(theta)
	pOf := func(th []float64) []float64 {
		p := make([]float64, n)
		for i := range th {
			p[i] = 1 / (1 + math.Exp(-th[i]))
		}
		return p
	}
	grad := newLikState(ds, pOf(theta), Model{}).MoveTo(prior, theta)

	const h = 1e-6
	for i := 0; i < n; i++ {
		up := append([]float64(nil), theta...)
		dn := append([]float64(nil), theta...)
		up[i] += h
		dn[i] -= h
		stUp := newLikState(ds, pOf(up), Model{})
		stDn := newLikState(ds, pOf(dn), Model{})
		want := (stUp.LogPostTheta(prior) - stDn.LogPostTheta(prior)) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Errorf("grad[%d] = %g, finite diff %g", i, grad[i], want)
		}
	}
}

func TestPriorValidate(t *testing.T) {
	if err := (Prior{Alpha: 1, Beta: 1}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Prior{}).Validate(); err == nil {
		t.Error("zero prior accepted")
	}
}
