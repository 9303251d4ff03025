package stats

import "testing"

var benchSinkF float64

// permIntoFixture returns the allocation-free permutation used by the MH
// sweep kernel, over a caller-owned buffer, as a closure.
func permIntoFixture() func() {
	r := NewRNG(1)
	p := make([]int, 256)
	return func() { r.PermInto(p) }
}

// truncNormalFixture returns the proposal draw on the MH hot path
// (//lint:hotpath), rejection sampling over value types, as a closure.
func truncNormalFixture() func() {
	r := NewRNG(1)
	d := TruncNormal{Mu: 0.4, Sigma: 0.15, Lo: 0, Hi: 1}
	return func() { benchSinkF += d.Sample(r) }
}

// BenchmarkPermInto times PermInto; TestHotpathKernelsAllocateNothing
// pins it at zero allocs/op.
func BenchmarkPermInto(b *testing.B) {
	perm := permIntoFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm()
	}
}

// BenchmarkTruncNormalSample times TruncNormal.Sample;
// TestHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkTruncNormalSample(b *testing.B) {
	sample := truncNormalFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample()
	}
}

// TestHotpathKernelsAllocateNothing is the dynamic side of the
// //lint:hotpath contract: over the benchmark fixtures, the two draws the
// MH sweep makes allocate nothing.
func TestHotpathKernelsAllocateNothing(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"PermInto", permIntoFixture()},
		{"TruncNormal.Sample", truncNormalFixture()},
	} {
		if n := testing.AllocsPerRun(100, k.run); n != 0 {
			t.Errorf("%s: %g allocs/op, want 0", k.name, n)
		}
	}
}
