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

// defaults returns the resolved zero Config: the paper's schedule and
// HMC integrator.
func defaults(tb testing.TB) Config {
	cfg, err := Config{}.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	return cfg
}

// kernelFixture returns one step of s's kernel over ds under model m —
// an MH sweep with its term and proposal caches, or an HMC trajectory
// with its Metropolis correction — from a start state drawn from the
// sparse prior, as a closure over the kernel and a chain tally.
func kernelFixture(ds *Dataset, s sampler, m Model) func() {
	rng := stats.NewRNG(42)
	beta := stats.NewBeta(SparsePrior.Alpha, SparsePrior.Beta)
	p0 := make([]float64, ds.NumNodes())
	for i := range p0 {
		p0[i] = clampProb(beta.Sample(rng))
	}
	k := s.start(m, ds, SparsePrior, p0, nil, "0")
	c, t := &Chain{}, 0
	return func() {
		k.step(c, t, rng)
		t++
	}
}

// mhSweepFixture returns one Metropolis-within-Gibbs sweep over the bench
// dataset under m — the MH sampler's inner loop, annotated //lint:hotpath.
func mhSweepFixture(tb testing.TB, m Model) func() {
	return kernelFixture(benchDataset(tb), defaults(tb).MH, m)
}

// hmcTrajectoryFixture returns one full HMC trajectory under m (momentum
// refresh, 12 leapfrog steps and the accept/reject) — the other
// //lint:hotpath kernel.
func hmcTrajectoryFixture(tb testing.TB, m Model) func() {
	return kernelFixture(benchDataset(tb), defaults(tb).HMC, m)
}

// churnBenchState compiles a mid-sized dataset (120 paths over ~30 ASes)
// and returns m's likelihood state over it, for the churn kernel benches.
func churnBenchState(tb testing.TB, m Model) *likState {
	tb.Helper()
	var obs []PathObs
	for k := 0; k < 120; k++ {
		obs = append(obs, PathObs{
			ASNs: []bgp.ASN{
				bgp.ASN(64500 + k%10),
				bgp.ASN(64600 + (k*3)%11),
				bgp.ASN(64700 + (k*7)%9),
			},
			Positive: k%4 == 0,
		})
	}
	ds, err := NewDataset(obs)
	if err != nil {
		tb.Fatal(err)
	}
	p := make([]float64, ds.NumNodes())
	for i := range p {
		p[i] = 0.05 + 0.9*float64(i)/float64(len(p))
	}
	return newLikState(ds, p, m)
}

// churnBenchModel is the churn configuration the kernel benches default
// to; BenchmarkChurnGradNoMiss drops its miss rate to 0, the configuration
// becaused's churn requests run at by default.
var churnBenchModel = Model{Name: "churn", BackgroundRate: 0.08, MissRate: 0.04}

// deltaApplyFixture returns the MH inner-loop kernel pair — one DeltaFor
// probe plus one Apply commit per coordinate — under the churn model, as
// a closure.
func deltaApplyFixture(tb testing.TB) func() {
	st := churnBenchState(tb, churnBenchModel)
	n := len(st.p)
	i := 0
	return func() {
		for j := 0; j < n; j++ {
			cand := 0.1 + 0.8*float64((i+j)%7)/7
			if st.DeltaFor(j, cand) > -1 {
				st.Apply(j, cand)
			}
		}
		i++
	}
}

// gradFixture returns the HMC gradient kernel of m — one leapfrog step's
// node and path passes, at a fixed position (zero momentum) — as a
// closure.
func gradFixture(tb testing.TB, m Model) func() {
	st := churnBenchState(tb, m)
	prior := Prior{Alpha: 0.4, Beta: 0.4}
	n := len(st.p)
	theta, mom, grad := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, p := range st.p {
		theta[i] = stats.Logit(p)
	}
	return func() {
		st.stepNodes(prior, theta, mom, grad, grad, 0, 0)
		st.stepPaths(grad)
	}
}

// BenchmarkChurnDeltaApply times the MH kernel pair under the churn model;
// TestChurnHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkChurnDeltaApply(b *testing.B) {
	deltaApply := deltaApplyFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaApply()
	}
}

// BenchmarkChurnGrad times the HMC gradient under the churn model;
// TestChurnHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkChurnGrad(b *testing.B) {
	grad := gradFixture(b, churnBenchModel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad()
	}
}

// BenchmarkChurnGradNoMiss times the HMC gradient at MissRate 0, where
// stable paths take the exact factor 1 and skip the exponential;
// TestChurnHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkChurnGradNoMiss(b *testing.B) {
	grad := gradFixture(b, Model{Name: "churn", BackgroundRate: churnBenchModel.BackgroundRate})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad()
	}
}

// BenchmarkMHSweep times one MH sweep; TestHotpathKernelsAllocateNothing
// pins it at zero allocs/op.
func BenchmarkMHSweep(b *testing.B) {
	sweep := mhSweepFixture(b, Model{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkHMCLeapfrog times one HMC trajectory;
// TestHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkHMCLeapfrog(b *testing.B) {
	trajectory := hmcTrajectoryFixture(b, Model{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trajectory()
	}
}

// TestHotpathKernelsAllocateNothing is the dynamic side of the
// //lint:hotpath contract the static analyzer enforces: over the
// benchmark fixtures, an MH sweep (with its term and proposal caches) and
// an HMC trajectory (from the kept start gradient, through the
// accept/reject) allocate nothing.
func TestHotpathKernelsAllocateNothing(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"mhSweep", mhSweepFixture(t, Model{})},
		{"hmcLeapfrog", hmcTrajectoryFixture(t, Model{})},
	} {
		if n := testing.AllocsPerRun(50, k.run); n != 0 {
			t.Errorf("%s: %g allocs/op, want 0", k.name, n)
		}
	}
}

// TestChurnHotpathKernelsAllocateNothing is the same contract under the
// churn model: an MH sweep, an HMC trajectory, the DeltaFor/Apply pair
// (committing the cached terms of each accepted move) and the gradient
// allocate nothing.
func TestChurnHotpathKernelsAllocateNothing(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"mhSweep", mhSweepFixture(t, churnBenchModel)},
		{"hmcLeapfrog", hmcTrajectoryFixture(t, churnBenchModel)},
		{"DeltaFor/Apply", deltaApplyFixture(t)},
		{"gradient", gradFixture(t, churnBenchModel)},
		{"gradient/nomiss", gradFixture(t, Model{Name: "churn", BackgroundRate: churnBenchModel.BackgroundRate})},
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
	perm := make([]int, nAS)
	rng.PermInto(perm)
	for _, i := range perm[:nAS/10] {
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
		{"mh", defaults(b).MH},
		{"hmc", defaults(b).HMC},
	} {
		b.Run(s.name, func(b *testing.B) {
			step := kernelFixture(ds, s.sampler, Model{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkSummarize times Summarize at paper scale: 600 nodes, an MH
// chain of 1500 samples and an HMC chain of 800, each node's column drawn
// from a Beta marginal of its own shape.
func BenchmarkSummarize(b *testing.B) {
	ds := paperDataset(b)
	rng := stats.NewRNG(3)
	chains := []*Chain{{Method: "mh"}, {Method: "hmc"}}
	for k, n := range []int{1500, 800} {
		c := chains[k]
		c.Nodes = ds.Nodes()
		c.Samples = make([][]float64, n)
		for t := range c.Samples {
			c.Samples[t] = make([]float64, ds.NumNodes())
		}
		for i := 0; i < ds.NumNodes(); i++ {
			beta := stats.NewBeta(0.5+float64(i%5), 0.5+float64(i%7))
			for _, s := range c.Samples {
				s[i] = beta.Sample(rng)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(ds, chains, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}
