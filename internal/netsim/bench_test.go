package netsim

import "testing"

var benchSinkSeq uint64

// queueFixture returns one push and one pop on an event queue held at a
// steady 1024 events, keyed by a fixed pseudo-random sequence, as a
// closure.
func queueFixture() func() {
	var q queue
	x := uint64(1)
	next := func() event {
		x = x*6364136223846793005 + 1442695040888963407
		return event{key: int64(x >> 34), seq: x, slot: int32(x >> 54)}
	}
	for i := 0; i < 1024; i++ {
		q.push(next())
	}
	return func() {
		q.push(next())
		benchSinkSeq += q.pop().seq
	}
}

// BenchmarkQueuePushPop times one push and one pop;
// TestHotpathKernelsAllocateNothing pins it at zero allocs/op.
func BenchmarkQueuePushPop(b *testing.B) {
	pushPop := queueFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pushPop()
	}
}

// TestHotpathKernelsAllocateNothing is the dynamic side of the
// //lint:hotpath contract: at steady capacity, the event queue's push and
// pop allocate nothing.
func TestHotpathKernelsAllocateNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, queueFixture()); n != 0 {
		t.Errorf("queue push/pop: %g allocs/op, want 0", n)
	}
}
