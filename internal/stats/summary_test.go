package stats

import (
	"math"
	"slices"
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

// hdpi is HDPIInto with a scratch of its own.
func hdpi(samples []float64, mass float64) HDPI {
	return HDPIInto(make([]float64, len(samples)), samples, mass)
}

func TestHDPIContainsMass(t *testing.T) {
	r := NewRNG(1)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = r.Norm()
	}
	h := hdpi(samples, 0.95)
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
// and a scratch longer than the samples gives an exact-size scratch's
// interval.
func TestHDPIIntoLeavesSamples(t *testing.T) {
	samples := []float64{0.9, 0.1, 0.5, 0.3, 0.7}
	buf := make([]float64, 8)
	if got, want := HDPIInto(buf, samples, 0.6), hdpi(samples, 0.6); got != want {
		t.Errorf("HDPIInto with a long scratch = %+v, want %+v", got, want)
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
		h := hdpi(samples, 0.9)
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
	h := hdpi(samples, 0.95)
	if h.Hi < 0.99 {
		t.Errorf("skewed HDPI should reach ~1, got hi=%g", h.Hi)
	}
	if h.Lo < 0.7 {
		t.Errorf("skewed HDPI lower bound too low: %g", h.Lo)
	}
}

func TestHDPIEdgeCases(t *testing.T) {
	if h := hdpi(nil, 0.95); h.Lo != 0 || h.Hi != 0 {
		t.Error("empty HDPI should be zero")
	}
	h := hdpi([]float64{0.7}, 0.95)
	if h.Lo != 0.7 || h.Hi != 0.7 {
		t.Errorf("single-sample HDPI = %+v", h)
	}
	h = hdpi([]float64{1, 2, 3}, 1.0)
	if h.Lo != 1 || h.Hi != 3 || h.Mass != 1 {
		t.Errorf("full-mass HDPI = %+v", h)
	}
}

// hdpiBySort is HDPIInto as a full sort of the samples followed by the
// window scan: the reference its selection of the two tails must match.
func hdpiBySort(samples []float64, mass float64) HDPI {
	n := len(samples)
	if n == 0 {
		return HDPI{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if mass >= 1 {
		return HDPI{Lo: s[0], Hi: s[n-1], Mass: 1}
	}
	k := min(max(int(math.Ceil(mass*float64(n))), 1), n)
	bestLo, bestHi := s[0], s[k-1]
	for i := 1; i+k-1 < n; i++ {
		if s[i+k-1]-s[i] < bestHi-bestLo {
			bestLo, bestHi = s[i], s[i+k-1]
		}
	}
	return HDPI{Lo: bestLo, Hi: bestHi, Mass: float64(k) / float64(n)}
}

// TestHDPIIntoMatchesSort pins HDPIInto bitwise to the full-sort
// reference for every n up to 400 and a spread of n up to 3000, at masses
// from 0.5 to 0.99 (and 1), over continuous samples, heavy ties, NaNs,
// presorted, reversed and organ-pipe inputs. Zeros stay unsigned: -0 and +0 tie under
// the sort order, so which of the two an endpoint carries is not part of
// the contract.
func TestHDPIIntoMatchesSort(t *testing.T) {
	r := NewRNG(9)
	gens := map[string]func(i, n int) float64{
		"uniform":  func(int, int) float64 { return r.Float64() },
		"ties":     func(int, int) float64 { return float64(r.Intn(4)) / 4 },
		"constant": func(int, int) float64 { return 0.5 },
		"sorted":   func(i, n int) float64 { return float64(i) / float64(n) },
		"reversed": func(i, n int) float64 { return float64(n-i) / float64(n) },
		// Rising then falling, like a chain that drifts out and back: it
		// defeats the median-of-three pivot until selectNth sorts the
		// window it has left.
		"organ": func(i, n int) float64 { return float64(min(i, n-i)) / float64(n) },
		"nan": func(int, int) float64 {
			if r.Intn(10) == 0 {
				return math.NaN()
			}
			return r.Norm()
		},
	}
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	var sizes []int
	for n := 1; n <= 400; n++ {
		sizes = append(sizes, n)
	}
	for n := 401; n < 3000; n += 97 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 3000)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	buf := make([]float64, 3000)
	for _, name := range names {
		for _, n := range sizes {
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = gens[name](i, n)
			}
			for _, mass := range []float64{0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 1} {
				got, want := HDPIInto(buf, samples, mass), hdpiBySort(samples, mass)
				if !same(got.Lo, want.Lo) || !same(got.Hi, want.Hi) || !same(got.Mass, want.Mass) {
					t.Fatalf("%s n=%d mass %g: HDPIInto = %+v, full sort %+v", name, n, mass, got, want)
				}
			}
		}
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
	if want := []float64{0.25, 0.5, 0.75, 1}; !slices.Equal(e.P, want) {
		t.Errorf("P = %v, want %v", e.P, want)
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
}

func TestConfusionVacuous(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Error("vacuous precision/recall should be 1")
	}
}
