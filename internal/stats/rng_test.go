package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	// splitmix seeding must not leave an all-zero state (xoshiro would be
	// stuck at zero forever).
	var nonzero bool
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sq += f * f
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("uniform variance = %g, want ~%g", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("Intn(10) value %d drawn %d times out of 100000 (severely non-uniform)", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := make([]int, n)
		r.PermInto(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(17)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatalf("Exp() negative: %g", v)
		}
		sum += v
	}
	if m := sum / float64(n); math.Abs(m-1) > 0.02 {
		t.Errorf("exponential mean = %g, want ~1", m)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	child := r.Split()
	// Parent and child streams should not be identical.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream mirrors parent (%d/64 draws equal)", same)
	}
}

// TestSplitOrderInsensitive pins the splitting contract: the k-th Split of
// a generator depends only on the construction seed and k, not on how many
// values were drawn before splitting. This is what lets the parallel
// inference engine pre-assign chain streams in any order.
func TestSplitOrderInsensitive(t *testing.T) {
	f := func(seed uint64, drawsRaw uint8, splitsRaw uint8) bool {
		draws := int(drawsRaw % 50)
		nSplits := int(splitsRaw%5) + 1

		// Reference: split nSplits times with no consumption at all.
		ref := NewRNG(seed)
		want := make([][]uint64, nSplits)
		for k := range want {
			want[k] = drawN(ref.Split(), 32)
		}

		// Same seed, but interleave parent draws before and between splits.
		mixed := NewRNG(seed)
		for i := 0; i < draws; i++ {
			mixed.Uint64()
		}
		for k := 0; k < nSplits; k++ {
			got := drawN(mixed.Split(), 32)
			for i := range got {
				if got[i] != want[k][i] {
					return false
				}
			}
			for i := 0; i <= draws%7; i++ {
				mixed.Uint64()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitDoesNotAdvanceParent: the parent's draw stream must be
// unaffected by splitting — otherwise inserting a Split call anywhere
// would shift every downstream sequence.
func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	a.Split()
	a.Split()
	for i := 0; i < 256; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split advanced the parent stream (diverged at draw %d)", i)
		}
	}
}

// TestSplitPairwiseIndependent checks that sibling streams (and the parent)
// are pairwise distinct with no detectable mirroring: across random seeds,
// any two of {parent, child_1..child_k} share essentially no draws.
func TestSplitPairwiseIndependent(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%4) + 2
		r := NewRNG(seed)
		streams := make([][]uint64, 0, k+1)
		for i := 0; i < k; i++ {
			streams = append(streams, drawN(r.Split(), 64))
		}
		streams = append(streams, drawN(r, 64)) // the parent itself
		for i := 0; i < len(streams); i++ {
			for j := i + 1; j < len(streams); j++ {
				same := 0
				for n := range streams[i] {
					if streams[i][n] == streams[j][n] {
						same++
					}
				}
				if same > 2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func drawN(r *RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(29)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(31)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / 100000
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %g", frac)
	}
}
