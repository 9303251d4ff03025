package churn

import (
	"testing"

	"because/internal/bgp"
	"because/internal/core"
)

// benchState compiles a mid-sized dataset (120 paths over ~30 ASes) and
// returns m's state behind the ModelState interface — the benches
// below call through the interface deliberately, so they measure exactly
// what the samplers' hot loops execute (devirtualisation included or not).
func benchState(tb testing.TB, m Model) core.ModelState {
	tb.Helper()
	var obs []core.PathObs
	for k := 0; k < 120; k++ {
		obs = append(obs, core.PathObs{
			ASNs: []bgp.ASN{
				bgp.ASN(64500 + k%10),
				bgp.ASN(64600 + (k*3)%11),
				bgp.ASN(64700 + (k*7)%9),
			},
			Positive: k%4 == 0,
		})
	}
	ds, err := core.NewDataset(obs)
	if err != nil {
		tb.Fatal(err)
	}
	p := make([]float64, ds.NumNodes())
	for i := range p {
		p[i] = 0.05 + 0.9*float64(i)/float64(len(p))
	}
	return m.NewState(ds, p)
}

// benchModel is the churn configuration the kernel benches default to;
// BenchmarkChurnGradNoMiss drops its miss rate to 0, the configuration
// becaused's churn requests run at by default.
var benchModel = Model{BackgroundRate: 0.08, MissRate: 0.04}

// deltaApplyFixture returns the MH inner-loop kernel pair — one DeltaFor
// probe plus one Apply commit per coordinate — through the ModelState
// interface, as a closure.
func deltaApplyFixture(tb testing.TB) func() {
	st := benchState(tb, benchModel)
	n := len(st.Probabilities())
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

// gradFixture returns the HMC leapfrog kernel — the full logit-space
// posterior gradient of m — through the ModelState interface, as a
// closure.
func gradFixture(tb testing.TB, m Model) func() {
	st := benchState(tb, m)
	prior := core.Prior{Alpha: 0.4, Beta: 0.4}
	grad := make([]float64, len(st.Probabilities()))
	return func() {
		st.GradLogPostTheta(prior, grad)
		st.Recompute()
	}
}

// trajectoryFixture returns the model side of one HMC trajectory — a
// SetP and a gradient per leapfrog step, then the log posterior — through
// the ModelState interface, as a closure.
func trajectoryFixture(tb testing.TB) func() {
	st := benchState(tb, benchModel)
	prior := core.Prior{Alpha: 0.4, Beta: 0.4}
	p := make([]float64, len(st.Probabilities()))
	grad := make([]float64, len(p))
	return func() {
		for step := 0; step < 12; step++ {
			for i := range p {
				p[i] = 0.05 + 0.9*float64((i+step)%7)/7
			}
			st.SetP(p)
			st.GradLogPostTheta(prior, grad)
		}
		st.LogPostTheta(prior)
	}
}

// BenchmarkChurnDeltaApply times the MH kernel pair;
// TestHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkChurnDeltaApply(b *testing.B) {
	deltaApply := deltaApplyFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaApply()
	}
}

// BenchmarkChurnGrad times the HMC gradient;
// TestHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkChurnGrad(b *testing.B) {
	grad := gradFixture(b, benchModel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad()
	}
}

// BenchmarkChurnGradNoMiss times the HMC gradient at MissRate 0, where
// stable paths take the exact factor 1 and skip the exponential;
// TestHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkChurnGradNoMiss(b *testing.B) {
	grad := gradFixture(b, Model{BackgroundRate: benchModel.BackgroundRate})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad()
	}
}

// TestHotpathKernelsAllocateNothing is the dynamic side of the
// //lint:hotpath contract: over the benchmark fixtures, the churn model's
// DeltaFor/Apply pair (committing the cached terms of each accepted
// move), its gradient and an HMC trajectory's model calls allocate
// nothing.
func TestHotpathKernelsAllocateNothing(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"DeltaFor/Apply", deltaApplyFixture(t)},
		{"GradLogPostTheta", gradFixture(t, benchModel)},
		{"GradLogPostTheta/nomiss", gradFixture(t, Model{BackgroundRate: benchModel.BackgroundRate})},
		{"trajectory", trajectoryFixture(t)},
	} {
		if n := testing.AllocsPerRun(50, k.run); n != 0 {
			t.Errorf("%s: %g allocs/op, want 0", k.name, n)
		}
	}
}
