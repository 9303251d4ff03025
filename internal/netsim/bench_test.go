package netsim

import (
	"testing"
	"time"
)

var benchSinkSeq uint64

// queueFixture returns one pop and one push on the Engine's calendar
// queue, held at a steady 2048 events, as a closure. Each push lands at
// the popped event's instant plus a horizon drawn, by a fixed
// pseudo-random sequence, from the mix a campaign run schedules: 87.4%
// link delays of 20 ms–1 s, 6.5% at 1–8 s, 5.8% MRAI timers at 30 s ± one
// bucket, 0.15% zero-delay and 0.15% just beyond the wheel's window, which
// go through the overflow heap. A further 256 events days out stay in the
// overflow throughout, like a beacon schedule armed up front. The fixture
// runs until the queue's buffers reach their steady capacity.
func queueFixture() func() {
	const (
		bucket = int64(1) << bucketShift
		window = wheelSize * bucket
	)
	now := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	c := &calendar{cur: bucketOf(now)}
	x, seq := uint64(1), uint64(0)
	rand := func(n int64) int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return int64(x>>11) % n
	}
	push := func(at int64) {
		seq++
		c.push(event{key: at, seq: seq, slot: int32(seq % 4096)})
	}
	horizon := func() int64 {
		switch p := rand(10000); {
		case p < 8740:
			return int64(20*time.Millisecond) + rand(int64(980*time.Millisecond))
		case p < 9390:
			return int64(time.Second) + rand(int64(7*time.Second))
		case p < 9970:
			return int64(30*time.Second) - bucket + rand(2*bucket)
		case p < 9985:
			return 0
		default:
			return window + rand(int64(time.Minute))
		}
	}
	for i := 0; i < 256; i++ {
		push(now + int64(24*time.Hour) + rand(int64(24*time.Hour)))
	}
	for i := 0; i < 2048-256; i++ {
		push(now + horizon())
	}
	pushPop := func() {
		ev, _ := c.pop()
		benchSinkSeq += ev.seq
		push(ev.key + horizon())
	}
	for i := 0; i < 1<<17; i++ {
		pushPop()
	}
	return pushPop
}

// BenchmarkQueuePushPop times one pop and one push;
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
	if n := testing.AllocsPerRun(1000, queueFixture()); n != 0 {
		t.Errorf("queue push/pop: %g allocs/op, want 0", n)
	}
}
