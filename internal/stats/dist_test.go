package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalLogPDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	want := -0.5 * math.Log(2*math.Pi)
	if got := n.LogPDF(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("stdnormal LogPDF(0) = %g, want %g", got, want)
	}
	// Symmetry.
	if a, b := n.LogPDF(1.3), n.LogPDF(-1.3); math.Abs(a-b) > 1e-12 {
		t.Errorf("normal LogPDF not symmetric: %g vs %g", a, b)
	}
}

func TestNormalSampleMoments(t *testing.T) {
	r := NewRNG(2)
	n := Normal{Mu: 3, Sigma: 2}
	var sum, sq float64
	N := 200000
	for i := 0; i < N; i++ {
		v := n.Mu + n.Sigma*r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(N)
	variance := sq/float64(N) - mean*mean
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("mean %g want 3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("variance %g want 4", variance)
	}
}

func TestBetaMoments(t *testing.T) {
	cases := []struct{ a, b float64 }{{2, 5}, {0.5, 0.5}, {1, 1}, {5, 1}}
	r := NewRNG(3)
	for _, c := range cases {
		d := NewBeta(c.a, c.b)
		var sum float64
		N := 100000
		for i := 0; i < N; i++ {
			x := d.Sample(r)
			if x < 0 || x > 1 {
				t.Fatalf("Beta(%g,%g) sample %g outside [0,1]", c.a, c.b, x)
			}
			sum += x
		}
		want := c.a / (c.a + c.b)
		if got := sum / float64(N); math.Abs(got-want) > 0.01 {
			t.Errorf("Beta(%g,%g) mean = %g, want %g", c.a, c.b, got, want)
		}
	}
}

func TestBetaPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBeta(0,1) did not panic")
		}
	}()
	NewBeta(0, 1)
}

func TestTruncNormalSupport(t *testing.T) {
	r := NewRNG(4)
	tn := TruncNormal{Mu: 0.5, Sigma: 0.2, Lo: 0, Hi: 1}
	for i := 0; i < 10000; i++ {
		x := tn.Sample(r)
		if x < 0 || x > 1 {
			t.Fatalf("truncated normal escaped support: %g", x)
		}
	}
	if !math.IsInf(tn.LogPDFGiven(-0.5, tn.LogMass()), -1) {
		t.Error("TruncNormal log density outside support should be -Inf")
	}
	// Density must integrate above the untruncated one inside the support.
	plain := Normal{Mu: 0.5, Sigma: 0.2}
	if tn.LogPDFGiven(0.5, tn.LogMass()) <= plain.LogPDF(0.5) {
		t.Error("truncated density should exceed untruncated inside support")
	}
}

// TestTruncNormalLogMass pins LogPDFGiven as the Gaussian log density
// less LogMass, the normaliser a caller evaluates once per centre,
// bitwise.
func TestTruncNormalLogMass(t *testing.T) {
	for _, mu := range []float64{1e-9, 0.02, 0.5, 0.97, 1 - 1e-9} {
		tn := TruncNormal{Mu: mu, Sigma: 0.15, Lo: 0, Hi: 1}
		mass := normCDF((1-mu)/0.15) - normCDF(-mu/0.15)
		if got := tn.LogMass(); got != math.Log(mass) {
			t.Errorf("Mu %g: LogMass = %v, want log %v", mu, got, mass)
		}
		for _, x := range []float64{1e-9, 0.3, mu, 1} {
			want := Normal{Mu: mu, Sigma: 0.15}.LogPDF(x) - math.Log(mass)
			if got := tn.LogPDFGiven(x, tn.LogMass()); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Mu %g: LogPDFGiven(%g) = %v, want %v", mu, x, got, want)
			}
		}
	}
	// All of the mass lies outside the interval: no density anywhere.
	far := TruncNormal{Mu: -100, Sigma: 0.15, Lo: 0, Hi: 1}
	if !math.IsInf(far.LogMass(), -1) || !math.IsInf(far.LogPDFGiven(0.5, far.LogMass()), -1) {
		t.Errorf("zero-mass LogMass = %v, LogPDFGiven = %v, want -Inf", far.LogMass(), far.LogPDFGiven(0.5, far.LogMass()))
	}
}

func TestLogitExpitRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := Expit(raw) // any real -> (0,1)
		if p <= 0 || p >= 1 {
			// extreme inputs saturate; skip
			return true
		}
		back := Expit(Logit(p))
		return math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpitStableForLargeInputs(t *testing.T) {
	if v := Expit(1000); v != 1 {
		t.Errorf("Expit(1000) = %g", v)
	}
	if v := Expit(-1000); v != 0 {
		t.Errorf("Expit(-1000) = %g", v)
	}
	if v := Expit(0); math.Abs(v-0.5) > 1e-15 {
		t.Errorf("Expit(0) = %g", v)
	}
}

func TestGammaSampleSmallShape(t *testing.T) {
	// shape < 1 exercises the boosting branch.
	r := NewRNG(5)
	var sum float64
	N := 100000
	for i := 0; i < N; i++ {
		v := gammaSample(r, 0.3)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("gamma(0.3) sample invalid: %g", v)
		}
		sum += v
	}
	if m := sum / float64(N); math.Abs(m-0.3) > 0.02 {
		t.Errorf("gamma(0.3) mean = %g, want 0.3", m)
	}
}
