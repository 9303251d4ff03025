package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// HDPI is a highest posterior density interval: the narrowest interval
// [Lo, Hi] containing the requested share of posterior samples. Its width
// quantifies the (asymmetric) spread of a marginal and hence the certainty
// of the inference, exactly as used in § 5.1 of the paper.
type HDPI struct {
	Lo, Hi float64
	// Mass is the share of samples actually contained (>= the request).
	Mass float64
}

// Width returns Hi - Lo.
func (h HDPI) Width() float64 { return h.Hi - h.Lo }

// HDPIOf computes the highest-density interval containing at least mass
// (e.g. 0.95) of the samples. For an empty input it returns a zero HDPI; for
// a single sample, the degenerate interval at that sample.
func HDPIOf(samples []float64, mass float64) HDPI {
	return HDPIInto(make([]float64, len(samples)), samples, mass)
}

// HDPIInto is HDPIOf with buf (len(buf) >= len(samples)) as its sort
// scratch, so a caller summarising many marginals allocates it once.
// samples is left unchanged.
func HDPIInto(buf, samples []float64, mass float64) HDPI {
	n := len(samples)
	if n == 0 {
		return HDPI{}
	}
	s := buf[:n]
	copy(s, samples)
	sort.Float64s(s)
	if mass >= 1 {
		return HDPI{Lo: s[0], Hi: s[n-1], Mass: 1}
	}
	k := int(math.Ceil(mass * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Slide a window of k consecutive order statistics; the narrowest window
	// is the HDPI for a unimodal sample cloud (and a good approximation
	// otherwise).
	bestLo, bestHi := s[0], s[k-1]
	for i := 1; i+k-1 < n; i++ {
		if s[i+k-1]-s[i] < bestHi-bestLo {
			bestLo, bestHi = s[i], s[i+k-1]
		}
	}
	return HDPI{Lo: bestLo, Hi: bestHi, Mass: float64(k) / float64(n)}
}

// Histogram bins xs into n equal-width bins over [lo, hi]. Values outside
// the range are clamped into the first/last bin; this matches the paper's
// 40-bin burst histograms where every update belongs to some bin.
func Histogram(xs []float64, lo, hi float64, n int) []int {
	counts := make([]int, n)
	if n == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	return counts
}

// ECDF returns the empirical CDF of xs evaluated at the sorted sample
// points: pairs (x_i, i/n). It is used to print the figure-13 style CDFs.
type ECDF struct {
	X []float64 // sorted sample values
	P []float64 // cumulative probabilities, P[i] = (i+1)/n
}

// NewECDF builds the empirical CDF of xs.
func NewECDF(xs []float64) ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := make([]float64, len(s))
	for i := range p {
		p[i] = float64(i+1) / float64(len(s))
	}
	return ECDF{X: s, P: p}
}

// At returns the CDF value at x.
func (e ECDF) At(x float64) float64 {
	i := sort.SearchFloat64s(e.X, x)
	// SearchFloat64s returns the first index with X[i] >= x; we want the
	// share of samples <= x.
	for i < len(e.X) && e.X[i] == x {
		i++
	}
	return float64(i) / float64(len(e.X))
}

// Quantile returns the q-quantile of the ECDF's samples.
func (e ECDF) Quantile(q float64) float64 {
	if len(e.X) == 0 {
		return math.NaN()
	}
	return sortedQuantile(e.X, q)
}

// LinReg is an ordinary least squares fit y = Intercept + Slope*x.
type LinReg struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination (0 for a degenerate fit).
	R2 float64
}

// LinRegFit fits a least-squares line through (xs[i], ys[i]). It panics if
// the slices differ in length and returns a zero-slope fit for n < 2 or
// constant xs.
func LinRegFit(xs, ys []float64) LinReg {
	if len(xs) != len(ys) {
		panic("stats: LinRegFit length mismatch")
	}
	if len(xs) < 2 {
		r := LinReg{}
		if len(ys) == 1 {
			r.Intercept = ys[0]
		}
		return r
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{Intercept: my}
	}
	slope := sxy / sxx
	reg := LinReg{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		reg.R2 = (sxy * sxy) / (sxx * syy)
	}
	return reg
}

// At evaluates the fitted line at x.
func (l LinReg) At(x float64) float64 { return l.Intercept + l.Slope*x }

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic: the
// maximum vertical distance between the empirical CDFs of xs and ys. The
// paper's Figure 8 argues two beacon families "show the same
// characteristics"; the statistic quantifies that claim.
func KSStatistic(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return math.NaN()
	}
	ex, ey := NewECDF(xs), NewECDF(ys)
	maxD := 0.0
	for _, x := range ex.X {
		if d := math.Abs(ex.At(x) - ey.At(x)); d > maxD {
			maxD = d
		}
	}
	for _, y := range ey.X {
		if d := math.Abs(ex.At(y) - ey.At(y)); d > maxD {
			maxD = d
		}
	}
	return maxD
}
