package churn

import (
	"testing"

	"because/internal/bgp"
	"because/internal/core"
)

// benchState compiles a mid-sized dataset (120 paths over ~30 ASes) and
// returns the churn state behind the ModelState interface — the benches
// below call through the interface deliberately, so they measure exactly
// what the samplers' hot loops execute (devirtualisation included or not).
func benchState(tb testing.TB) core.ModelState {
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
	return Model{BackgroundRate: 0.08, MissRate: 0.04}.NewState(ds, p)
}

// deltaApplyFixture returns the MH inner-loop kernel pair — one DeltaFor
// probe plus one Apply commit per coordinate — through the ModelState
// interface, as a closure.
func deltaApplyFixture(tb testing.TB) func() {
	st := benchState(tb)
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
// posterior gradient — through the ModelState interface, as a closure.
func gradFixture(tb testing.TB) func() {
	st := benchState(tb)
	prior := core.Prior{Alpha: 0.4, Beta: 0.4}
	grad := make([]float64, len(st.Probabilities()))
	return func() {
		st.GradLogPostTheta(prior, grad)
		st.Recompute()
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
	grad := gradFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad()
	}
}

// TestHotpathKernelsAllocateNothing is the dynamic side of the
// //lint:hotpath contract: over the benchmark fixtures, the churn model's
// DeltaFor/Apply pair and its gradient allocate nothing.
func TestHotpathKernelsAllocateNothing(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"DeltaFor/Apply", deltaApplyFixture(t)},
		{"GradLogPostTheta", gradFixture(t)},
	} {
		if n := testing.AllocsPerRun(50, k.run); n != 0 {
			t.Errorf("%s: %g allocs/op, want 0", k.name, n)
		}
	}
}
