package core

import (
	"testing"

	"because/internal/bgp"
	"because/internal/stats"
)

// benchDataset synthesises a mid-sized measurement set (40 ASes, 160
// three-hop paths, one planted damper) sized so the per-sweep kernels
// dominate over cache effects.
func benchDataset(tb testing.TB) *Dataset {
	tb.Helper()
	rng := stats.NewRNG(7)
	obs := make([]PathObs, 0, 160)
	for k := 0; k < 160; k++ {
		path := make([]bgp.ASN, 3)
		positive := false
		for j := range path {
			// Paths must not repeat an AS; redraw collisions.
			for {
				path[j] = bgp.ASN(1 + rng.Intn(40))
				if path[j] != path[(j+1)%3] && path[j] != path[(j+2)%3] {
					break
				}
			}
			if path[j] == 7 {
				positive = true
			}
		}
		obs = append(obs, PathObs{ASNs: path, Positive: positive})
	}
	ds, err := NewDataset(obs)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// mhSweepFixture returns one Metropolis-within-Gibbs sweep over the bench
// dataset — the MH sampler's inner loop, annotated //lint:hotpath — as a
// closure over its state and buffers.
func mhSweepFixture(tb testing.TB) func() {
	ds := benchDataset(tb)
	rng := stats.NewRNG(42)
	n := ds.NumNodes()
	beta := stats.NewBeta(SparsePrior.Alpha, SparsePrior.Beta)
	p0 := make([]float64, n)
	for i := range p0 {
		p0[i] = clampP(beta.Sample(rng))
	}
	st := newLikState(ds, p0, 0)
	order := make([]int, n)
	return func() { mhSweep(st, SparsePrior, mhStepSize, order, rng) }
}

// hmcTrajectoryFixture returns one full HMC trajectory (momentum refresh
// + 12 leapfrog steps) over caller-owned buffers — the other
// //lint:hotpath kernel — as a closure.
func hmcTrajectoryFixture(tb testing.TB) func() {
	ds := benchDataset(tb)
	rng := stats.NewRNG(42)
	n := ds.NumNodes()
	beta := stats.NewBeta(SparsePrior.Alpha, SparsePrior.Beta)
	theta := make([]float64, n)
	p := make([]float64, n)
	for i := range theta {
		theta[i] = stats.Logit(clampP(beta.Sample(rng)))
	}
	thetaToP(theta, p)
	st := newLikState(ds, p, 0)
	stProp := newLikState(ds, p, 0)
	grad := make([]float64, n)
	mom := make([]float64, n)
	thetaProp := make([]float64, n)
	pProp := make([]float64, n)
	return func() {
		for j := range mom {
			mom[j] = rng.Norm()
		}
		copy(thetaProp, theta)
		stProp.CopyFrom(st)
		hmcLeapfrog(stProp, SparsePrior, thetaProp, pProp, grad, mom, 0.08, 12)
	}
}

// BenchmarkMHSweep times one MH sweep; TestHotpathKernelsAllocateNothing
// pins it at zero allocs/op.
func BenchmarkMHSweep(b *testing.B) {
	sweep := mhSweepFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkHMCLeapfrog times one HMC trajectory;
// TestHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkHMCLeapfrog(b *testing.B) {
	trajectory := hmcTrajectoryFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trajectory()
	}
}

// TestHotpathKernelsAllocateNothing is the dynamic side of the
// //lint:hotpath contract the static analyzer enforces: over the
// benchmark fixtures, an MH sweep and an HMC trajectory allocate nothing.
func TestHotpathKernelsAllocateNothing(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"mhSweep", mhSweepFixture(t)},
		{"hmcLeapfrog", hmcTrajectoryFixture(t)},
	} {
		if n := testing.AllocsPerRun(50, k.run); n != 0 {
			t.Errorf("%s: %g allocs/op, want 0", k.name, n)
		}
	}
}
