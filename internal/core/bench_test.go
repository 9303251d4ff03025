package core

import (
	"slices"
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

// kernelFixture returns one step of s's kernel over ds — an MH sweep
// with its term and proposal caches, or an HMC trajectory with its
// Metropolis correction — from a start state drawn from the sparse prior,
// as a closure over the kernel and a chain tally.
func kernelFixture(ds *Dataset, s sampler) func() {
	rng := stats.NewRNG(42)
	beta := stats.NewBeta(SparsePrior.Alpha, SparsePrior.Beta)
	p0 := make([]float64, ds.NumNodes())
	for i := range p0 {
		p0[i] = ClampProb(beta.Sample(rng))
	}
	k := s.start(RFDModel{}, ds, SparsePrior, p0, nil, "0")
	c, t := &Chain{}, 0
	return func() {
		k.step(c, t, rng)
		t++
	}
}

// mhSweepFixture returns one Metropolis-within-Gibbs sweep over the bench
// dataset — the MH sampler's inner loop, annotated //lint:hotpath.
func mhSweepFixture(tb testing.TB) func() { return kernelFixture(benchDataset(tb), MHConfig{}) }

// hmcTrajectoryFixture returns one full HMC trajectory (momentum refresh,
// 12 leapfrog steps and the accept/reject) — the other //lint:hotpath
// kernel.
func hmcTrajectoryFixture(tb testing.TB) func() { return kernelFixture(benchDataset(tb), HMCConfig{}) }

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
// benchmark fixtures, an MH sweep (with its term and proposal caches)
// and an HMC trajectory (from the kept start gradient, through the
// accept/reject) allocate nothing.
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

// paperDataset synthesises a dataset at the scale of perfbench's
// infer-paper workload: 600 ASes, 3000 paths of 3–6 distinct hops, a
// tenth of the ASes planted as dampers with p ~ U(0.8, 1), and each label
// drawn from Eq. 5. The 40-AS bench dataset has too few paths per node to
// show what the per-path caches save.
func paperDataset(tb testing.TB) *Dataset {
	tb.Helper()
	const nAS, nPaths = 600, 3000
	rng := stats.NewRNG(5)
	p := make([]float64, nAS)
	for _, i := range rng.Perm(nAS)[:nAS/10] {
		p[i] = 0.8 + 0.2*rng.Float64()
	}
	obs := make([]PathObs, nPaths)
	for j := range obs {
		hops := 3 + rng.Intn(4)
		path := make([]bgp.ASN, 0, hops)
		clean := 1.0
		for len(path) < hops {
			i := rng.Intn(nAS)
			if slices.Contains(path, bgp.ASN(1+i)) {
				continue
			}
			path = append(path, bgp.ASN(1+i))
			clean *= 1 - p[i]
		}
		obs[j] = PathObs{ASNs: path, Positive: rng.Float64() >= clean}
	}
	ds, err := NewDataset(obs)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// BenchmarkPaperChain times one step of each sampler's kernel at paper
// scale: mh is one sweep over all 600 nodes, hmc one trajectory.
func BenchmarkPaperChain(b *testing.B) {
	ds := paperDataset(b)
	for _, s := range []struct {
		name    string
		sampler sampler
	}{
		{"mh", MHConfig{}},
		{"hmc", HMCConfig{}},
	} {
		b.Run(s.name, func(b *testing.B) {
			step := kernelFixture(ds, s.sampler)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
