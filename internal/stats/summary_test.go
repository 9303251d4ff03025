package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %g", m)
	}
	if v := Variance(xs); math.Abs(v-5.0/3) > 1e-12 {
		t.Errorf("Variance = %g, want %g", v, 5.0/3)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of 1 sample should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Median(xs) != 2.5 {
		t.Errorf("Median = %g", Median(xs))
	}
}

func TestHDPIContainsMass(t *testing.T) {
	r := NewRNG(1)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = r.Norm()
	}
	h := HDPIOf(samples, 0.95)
	if h.Mass < 0.95 {
		t.Errorf("HDPI mass %g < 0.95", h.Mass)
	}
	// For a standard normal, the 95% HPD is about [-1.96, 1.96].
	if h.Lo > -1.7 || h.Lo < -2.3 || h.Hi < 1.7 || h.Hi > 2.3 {
		t.Errorf("HDPI [%g,%g] far from [-1.96,1.96]", h.Lo, h.Hi)
	}
}

// TestHDPIIntoLeavesSamples checks that HDPIInto sorts only its scratch:
// the samples keep their order (callers take means of them afterwards)
// and a scratch longer than the samples gives HDPIOf's interval.
func TestHDPIIntoLeavesSamples(t *testing.T) {
	samples := []float64{0.9, 0.1, 0.5, 0.3, 0.7}
	buf := make([]float64, 8)
	if got, want := HDPIInto(buf, samples, 0.6), HDPIOf(samples, 0.6); got != want {
		t.Errorf("HDPIInto = %+v, HDPIOf = %+v", got, want)
	}
	if samples[0] != 0.9 || samples[1] != 0.1 || samples[4] != 0.7 {
		t.Errorf("samples reordered: %v", samples)
	}
}

func TestHDPIIsNarrowestProperty(t *testing.T) {
	r := NewRNG(2)
	f := func(seed uint16) bool {
		rr := NewRNG(uint64(seed))
		n := 50 + rr.Intn(100)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.Float64()
		}
		h := HDPIOf(samples, 0.9)
		// Count contained samples and check the mass promise.
		cnt := 0
		for _, s := range samples {
			if s >= h.Lo && s <= h.Hi {
				cnt++
			}
		}
		return float64(cnt)/float64(n) >= 0.9 && h.Hi >= h.Lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHDPISkewedDistribution(t *testing.T) {
	// Posterior mass piled at 1 (a "strong damper" marginal): HDPI must hug 1.
	r := NewRNG(3)
	d := NewBeta(20, 1)
	samples := make([]float64, 4000)
	for i := range samples {
		samples[i] = d.Sample(r)
	}
	h := HDPIOf(samples, 0.95)
	if h.Hi < 0.99 {
		t.Errorf("skewed HDPI should reach ~1, got hi=%g", h.Hi)
	}
	if h.Lo < 0.7 {
		t.Errorf("skewed HDPI lower bound too low: %g", h.Lo)
	}
}

func TestHDPIEdgeCases(t *testing.T) {
	if h := HDPIOf(nil, 0.95); h.Lo != 0 || h.Hi != 0 {
		t.Error("empty HDPI should be zero")
	}
	h := HDPIOf([]float64{0.7}, 0.95)
	if h.Lo != 0.7 || h.Hi != 0.7 {
		t.Errorf("single-sample HDPI = %+v", h)
	}
	h = HDPIOf([]float64{1, 2, 3}, 1.0)
	if h.Lo != 1 || h.Hi != 3 || h.Mass != 1 {
		t.Errorf("full-mass HDPI = %+v", h)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.99, 1.5, -1}
	h := Histogram(xs, 0, 1, 4)
	// -1 clamps into bin 0, 1.5 clamps into bin 3.
	want := []int{3, 0, 1, 2}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("Histogram = %v, want %v", h, want)
		}
	}
	if got := Histogram(xs, 0, 0, 4); len(got) != 4 {
		t.Error("degenerate range should still return n bins")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2})
	if !sort.Float64sAreSorted(e.X) {
		t.Fatal("ECDF X not sorted")
	}
	if got := e.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %g", got)
	}
	if got := e.At(2); got != 0.75 {
		t.Errorf("At(2) = %g, want 0.75", got)
	}
	if got := e.At(10); got != 1 {
		t.Errorf("At(10) = %g", got)
	}
	if q := e.Quantile(0.5); math.Abs(q-2) > 1e-12 {
		t.Errorf("Quantile(0.5) = %g", q)
	}
}

func TestLinRegExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	l := LinRegFit(xs, ys)
	if math.Abs(l.Slope-2) > 1e-12 || math.Abs(l.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v", l)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Errorf("R2 = %g, want 1", l.R2)
	}
	if math.Abs(l.At(10)-21) > 1e-12 {
		t.Errorf("At(10) = %g", l.At(10))
	}
}

func TestLinRegDegenerate(t *testing.T) {
	l := LinRegFit([]float64{1, 1, 1}, []float64{2, 4, 6})
	if l.Slope != 0 || l.Intercept != 4 {
		t.Errorf("constant-x fit = %+v", l)
	}
	l = LinRegFit(nil, nil)
	if l.Slope != 0 {
		t.Errorf("empty fit slope = %g", l.Slope)
	}
}

func TestLinRegLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	LinRegFit([]float64{1}, []float64{1, 2})
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 1 FN, 5 TN
	for i := 0; i < 3; i++ {
		c.Add(true, true)
	}
	c.Add(true, false)
	c.Add(false, true)
	for i := 0; i < 5; i++ {
		c.Add(false, false)
	}
	if p := c.Precision(); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("precision %g", p)
	}
	if r := c.Recall(); math.Abs(r-0.75) > 1e-12 {
		t.Errorf("recall %g", r)
	}
	if c.Total() != 10 {
		t.Errorf("total %d", c.Total())
	}
}

func TestConfusionVacuous(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Error("vacuous precision/recall should be 1")
	}
}

func TestKSStatistic(t *testing.T) {
	// Identical samples: distance 0.
	xs := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(xs, xs); d != 0 {
		t.Errorf("identical KS = %g", d)
	}
	// Disjoint supports: distance 1.
	if d := KSStatistic([]float64{1, 2}, []float64{10, 11}); d != 1 {
		t.Errorf("disjoint KS = %g", d)
	}
	// Same distribution, different samples: small distance.
	r := NewRNG(8)
	a := make([]float64, 3000)
	b := make([]float64, 3000)
	for i := range a {
		a[i], b[i] = r.Norm(), r.Norm()
	}
	if d := KSStatistic(a, b); d > 0.06 {
		t.Errorf("same-distribution KS = %g", d)
	}
	// Shifted distribution: clearly larger.
	for i := range b {
		b[i] += 1
	}
	if d := KSStatistic(a, b); d < 0.3 {
		t.Errorf("shifted KS = %g", d)
	}
	if !math.IsNaN(KSStatistic(nil, a)) {
		t.Error("empty sample KS should be NaN")
	}
}
