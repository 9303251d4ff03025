package stats

import (
	"fmt"
	"math"
)

// Normal is the Gaussian distribution with mean Mu and standard deviation
// Sigma.
type Normal struct {
	Mu, Sigma float64
}

// halfLog2Pi is the Gaussian log density's constant term, 0.5·log 2π.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// LogPDF is the Gaussian log density.
func (n Normal) LogPDF(x float64) float64 {
	if n.Sigma <= 0 {
		return math.Inf(-1)
	}
	z := (x - n.Mu) / n.Sigma
	return -0.5*z*z - math.Log(n.Sigma) - halfLog2Pi
}

// Beta is the Beta(Alpha, Beta) distribution on [0, 1]. It is the workhorse
// prior of the paper: Beta with parameters < 1 places mass near 0 and 1,
// matching the expectation that most ASes either damp (nearly) all routes
// or none.
type Beta struct {
	Alpha, BetaP float64
}

// NewBeta returns a Beta distribution; it panics on non-positive shape
// parameters.
func NewBeta(alpha, beta float64) Beta {
	if alpha <= 0 || beta <= 0 {
		panic(fmt.Sprintf("stats: invalid Beta(%g,%g)", alpha, beta))
	}
	return Beta{Alpha: alpha, BetaP: beta}
}

// Sample draws a Beta variate via two Gamma draws.
func (b Beta) Sample(rng *RNG) float64 {
	x := gammaSample(rng, b.Alpha)
	y := gammaSample(rng, b.BetaP)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// gammaSample draws from Gamma(shape, 1) using Marsaglia–Tsang, with the
// standard boosting trick for shape < 1.
func gammaSample(rng *RNG, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// TruncNormal is a Normal(Mu, Sigma) truncated to [Lo, Hi], used as the
// random-walk proposal of the Metropolis–Hastings sampler on [0,1].
type TruncNormal struct {
	Mu, Sigma, Lo, Hi float64
}

// Sample draws by rejection; for the narrow proposals used here the
// acceptance rate is high so rejection is cheaper than inverse-CDF.
//
//lint:hotpath
func (t TruncNormal) Sample(rng *RNG) float64 {
	for i := 0; i < 1024; i++ {
		x := t.Mu + t.Sigma*rng.Norm()
		if x >= t.Lo && x <= t.Hi {
			return x
		}
	}
	// Pathological parameters: fall back to uniform on the interval.
	return t.Lo + (t.Hi-t.Lo)*rng.Float64()
}

// LogMass is the log of the mass the untruncated normal puts on [Lo, Hi]:
// the normaliser LogPDFGiven subtracts. It is -Inf when that mass is zero.
//
//lint:hotpath
func (t TruncNormal) LogMass() float64 {
	mass := normCDF((t.Hi-t.Mu)/t.Sigma) - normCDF((t.Lo-t.Mu)/t.Sigma)
	if mass <= 0 {
		return math.Inf(-1)
	}
	return math.Log(mass)
}

// LogPDFGiven is the truncated-normal log density at x with its
// normaliser supplied: logMass must be t.LogMass(), which a caller that
// keeps one distribution across many densities evaluates once.
//
//lint:hotpath
func (t TruncNormal) LogPDFGiven(x, logMass float64) float64 {
	if x < t.Lo || x > t.Hi || math.IsInf(logMass, -1) {
		return math.Inf(-1)
	}
	return Normal{Mu: t.Mu, Sigma: t.Sigma}.LogPDF(x) - logMass
}

// normCDF is the standard normal CDF.
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// Logit maps p in (0,1) to the real line; the HMC sampler runs in this
// unconstrained space.
func Logit(p float64) float64 { return math.Log(p / (1 - p)) }

// Expit is the inverse of Logit (the logistic function).
//
//lint:hotpath
func Expit(x float64) float64 {
	// Numerically stable for large |x|.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
