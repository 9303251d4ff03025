package core

import (
	"math"

	"because/internal/stats"
)

// RHat computes the Gelman–Rubin potential scale reduction factor for one
// node across multiple chains. Values near 1 indicate the chains agree;
// above ~1.1 suggests non-convergence. At least two chains of at least two
// samples are required; otherwise NaN is returned.
func RHat(marginals [][]float64) float64 {
	m := len(marginals)
	if m < 2 {
		return math.NaN()
	}
	n := len(marginals[0])
	for _, c := range marginals {
		if len(c) != n {
			return math.NaN()
		}
	}
	if n < 2 {
		return math.NaN()
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	for i, c := range marginals {
		means[i] = stats.Mean(c)
		vars[i] = stats.Variance(c)
	}
	grand := stats.Mean(means)
	// Between-chain variance B/n and within-chain variance W.
	var b float64
	for _, mu := range means {
		d := mu - grand
		b += d * d
	}
	b = b * float64(n) / float64(m-1)
	w := stats.Mean(vars)
	if w == 0 {
		if b == 0 {
			return 1
		}
		return math.Inf(1)
	}
	vHat := (float64(n-1)/float64(n))*w + b/float64(n)
	return math.Sqrt(vHat / w)
}

// ESS estimates the effective sample size of one marginal using the
// initial-positive-sequence estimator over autocorrelations.
func ESS(samples []float64) float64 {
	return essInto(make([]float64, len(samples)), samples)
}

// essInto is ESS over a caller-owned scratch, at least len(samples) long,
// into which the column is centred once. The autocovariances at lags ℓ
// and ℓ+1 then accumulate in one loop, each in index order.
func essInto(buf, samples []float64) float64 {
	n := len(samples)
	if n < 4 {
		return float64(n)
	}
	mean := stats.Mean(samples)
	d := buf[:n]
	var c0 float64
	for i, x := range samples {
		d[i] = x - mean
		c0 += d[i] * d[i]
	}
	c0 /= float64(n)
	if c0 == 0 {
		return float64(n)
	}
	// Sum autocorrelations in pairs until a pair sum turns negative
	// (Geyer's initial positive sequence).
	sum := 0.0
	for lag := 1; lag+1 < n; lag += 2 {
		// The lag+1 sum has m terms; the lag sum has one more, d[m]·d[n-1].
		m := n - lag - 1
		head, at1, at2 := d[:m], d[lag:lag+m], d[lag+1:n]
		var s1, s2 float64
		for i, x := range head {
			s1 += x * at1[i]
			s2 += x * at2[i]
		}
		s1 += d[m] * d[n-1]
		r1 := s1 / float64(n) / c0
		r2 := s2 / float64(n) / c0
		if r1+r2 <= 0 {
			break
		}
		sum += r1 + r2
	}
	ess := float64(n) / (1 + 2*sum)
	if ess > float64(n) {
		ess = float64(n)
	}
	if ess < 1 {
		ess = 1
	}
	return ess
}
