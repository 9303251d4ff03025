// Package stats provides the deterministic statistical substrate used by
// the BeCAUSe tomography engine and the measurement simulators: a seedable
// random number generator, the probability distributions required by the
// samplers and priors, posterior summaries (mean, highest posterior density
// intervals), simple regression, and classifier evaluation metrics.
//
// Everything in this package is deterministic given an RNG seed, which is
// what makes the experiment harness reproducible bit-for-bit.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256**, seeded via splitmix64). It is NOT safe for concurrent use;
// give each goroutine its own RNG, e.g. via Split.
//
// We implement our own generator rather than wrapping math/rand so that
// sequences are stable across Go releases: the experiment tables in
// EXPERIMENTS.md depend on exact reproducibility.
type RNG struct {
	s [4]uint64
	// splitKey is fixed at construction and seeds every child stream;
	// splits counts Split calls. Together they make Split a pure function
	// of (construction seed, split ordinal) — see Split.
	splitKey uint64
	splits   uint64
}

// splitmix64 advances sm and returns the next splitmix64 output.
func splitmix64(sm *uint64) uint64 {
	*sm += 0x9e3779b97f4a7c15
	z := *sm
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed using splitmix64 so that
// nearby seeds yield uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	r.splitKey = splitmix64(&sm)
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's own output, letting simulators and the parallel
// inference engine hand child components their own RNGs without
// interleaving effects.
//
// Splitting contract: the k-th Split of a generator depends only on the
// generator's construction seed and k — NOT on how many values have been
// drawn from it. Splitting before or after consumption yields identical
// child streams, and Split never advances the parent's draw stream. This
// order-insensitivity is what lets core.InferContext pre-assign one stream
// per chain and run the chains in any order, on any number of workers,
// with bit-identical results (pinned by the reproducibility harness in
// internal/core).
func (r *RNG) Split() *RNG {
	r.splits++
	sm := r.splitKey ^ (r.splits * 0x9e3779b97f4a7c15)
	return NewRNG(splitmix64(&sm))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//lint:hotpath
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// PermInto fills p with a pseudo-random permutation of [0, len(p))
// (inside-out Fisher–Yates); it allocates nothing, so the samplers reuse
// one buffer.
//
//lint:hotpath
func (r *RNG) PermInto(p []int) {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Norm returns a standard normal variate (Box–Muller, polar form is avoided
// to keep the consumption of random bits per call constant).
//
//lint:hotpath
func (r *RNG) Norm() float64 {
	// Box–Muller; discard the second variate so every call consumes exactly
	// two uniforms, keeping downstream sequences alignment-stable when code
	// between calls changes.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exp returns an exponential variate with rate 1.
func (r *RNG) Exp() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
