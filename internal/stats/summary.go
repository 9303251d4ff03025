package stats

import (
	"math"
	"math/bits"
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

// HDPIInto computes the highest-density interval containing at least mass
// (e.g. 0.95) of the samples, ordering a copy in buf (len(buf) >=
// len(samples)) so a caller summarising many marginals allocates it once;
// samples is left unchanged. For an empty input it returns a zero HDPI; for
// a single sample, the degenerate interval at that sample.
//
// The interval is the narrowest window of k consecutive order statistics.
// The windows start at the t = n-k+1 lowest and end at the t highest, so
// only those two tails need to be in order: two quickselects isolate them
// and each is sorted. The result is the one a full sort.Float64s of the
// copy gives. A full sort runs instead when the tails are a quarter of the
// samples or more, where it is cheaper, and when a sample is NaN, which
// only that sort's order places.
func HDPIInto(buf, samples []float64, mass float64) HDPI {
	n := len(samples)
	if n == 0 {
		return HDPI{}
	}
	s := buf[:n]
	hasNaN := false
	for i, x := range samples {
		s[i] = x
		hasNaN = hasNaN || x != x
	}
	k := n
	if !(mass >= 1) {
		k = int(math.Ceil(mass * float64(n)))
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
	}
	if t := n - k + 1; 4*t >= n || hasNaN {
		sort.Float64s(s)
	} else {
		selectNth(s, t-1)
		sort.Float64s(s[:t])
		selectNth(s[t:], n-2*t)
		sort.Float64s(s[n-t:])
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

// selectNth reorders the NaN-free s so that s[nth] holds the value a full
// sort would put there, with no greater element before it and no smaller
// one after. It is Hoare's FIND: each round partitions the window holding
// nth around the median of its first, middle and last elements, and
// elements equal to the pivot stop both scans, so ties split evenly. A
// window still open after 2·log2(len(s)) rounds is sorted outright.
func selectNth(s []float64, nth int) {
	lo, hi := 0, len(s)-1
	for rounds := 2 * bits.Len(uint(len(s))); lo < hi; rounds-- {
		if rounds == 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		pivot := median3(s[lo], s[lo+(hi-lo)/2], s[hi])
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:j+1] <= pivot <= s[i:hi+1], and s[j+1:i] equals it.
		if j < nth {
			lo = i
		}
		if nth < i {
			hi = j
		}
	}
}

// median3 returns the median of a, b and c.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = max(a, c)
	}
	return b
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
