package netsim

import (
	"sort"
	"testing"
	"time"

	"because/internal/stats"
)

var t0 = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine(t0)
	var order []int
	e.At(t0.Add(3*time.Second), Func(func() { order = append(order, 3) }))
	e.At(t0.Add(1*time.Second), Func(func() { order = append(order, 1) }))
	e.At(t0.Add(2*time.Second), Func(func() { order = append(order, 2) }))
	end := e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if !end.Equal(t0.Add(3 * time.Second)) {
		t.Errorf("end time = %v", end)
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine(t0)
	var order []int
	at := t0.Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, Func(func() { order = append(order, i) }))
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(t0)
	var times []time.Time
	e.After(time.Second, Func(func() {
		times = append(times, e.Now())
		e.After(2*time.Second, Func(func() {
			times = append(times, e.Now())
		}))
	}))
	e.Run()
	if len(times) != 2 {
		t.Fatalf("ran %d events", len(times))
	}
	if !times[1].Equal(t0.Add(3 * time.Second)) {
		t.Errorf("nested event at %v", times[1])
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(t0)
	e.After(time.Second, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
		}()
		e.At(t0, Func(func() {}))
	}))
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(t0)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-time.Second, Func(func() {}))
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(t0)
	ran := 0
	for i := 1; i <= 10; i++ {
		e.At(t0.Add(time.Duration(i)*time.Minute), Func(func() { ran++ }))
	}
	e.RunUntil(t0.Add(5 * time.Minute))
	if ran != 5 {
		t.Fatalf("ran %d events, want 5", ran)
	}
	if !e.Now().Equal(t0.Add(5 * time.Minute)) {
		t.Errorf("clock = %v", e.Now())
	}
	// Deadline with no events still advances the clock.
	e.RunUntil(t0.Add(5*time.Minute + 30*time.Second))
	if !e.Now().Equal(t0.Add(5*time.Minute + 30*time.Second)) {
		t.Errorf("clock = %v", e.Now())
	}
	e.Run()
	if ran != 10 {
		t.Errorf("total ran = %d", ran)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	trace := func() []int {
		e := NewEngine(t0)
		var out []int
		var step func(n int)
		step = func(n int) {
			out = append(out, n)
			if n < 20 {
				e.After(time.Duration(n%3+1)*time.Second, Func(func() { step(n + 1) }))
			}
		}
		e.After(0, Func(func() { step(0) }))
		e.Run()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// TestExecutionOrderProperty runs seeded random schedules whose handlers
// schedule more work with At and After while Run executes them, over few
// distinct instants so that most events tie. The instants are given as
// differently represented but equal time.Time values: with and without a
// monotonic clock reading and in other locations. Execution order must
// equal a stable sort of every scheduled event by instant, which breaks
// ties by scheduling order, and Now must report each event's instant.
func TestExecutionOrderProperty(t *testing.T) {
	locs := []*time.Location{time.UTC, time.FixedZone("east", 5*3600+1800), time.FixedZone("west", -8*3600)}
	for seed := uint64(1); seed <= 25; seed++ {
		rng := stats.NewRNG(seed)
		start := time.Now() // carries a monotonic reading
		e := NewEngine(start)
		var scheduled []time.Time // by scheduling order
		var ran []int
		// represent returns a time.Time equal to at in a random form.
		represent := func(at time.Time) time.Time {
			switch rng.Intn(4) {
			case 0:
				return at
			case 1:
				return at.Round(0) // monotonic reading stripped
			case 2:
				return at.In(locs[rng.Intn(len(locs))])
			default:
				return time.Unix(0, at.UnixNano()).In(locs[rng.Intn(len(locs))])
			}
		}
		var schedule func(depth int)
		schedule = func(depth int) {
			id := len(scheduled)
			d := time.Duration(rng.Intn(4)) * time.Second
			at := e.Now().Add(d)
			after := rng.Intn(2) == 0
			if !after {
				at = represent(at)
			}
			scheduled = append(scheduled, at)
			h := Func(func() {
				if !e.Now().Equal(at) {
					t.Errorf("seed %d: event %d ran at %v, scheduled for %v", seed, id, e.Now(), at)
				}
				ran = append(ran, id)
				if depth < 3 {
					for k := rng.Intn(3); k > 0; k-- {
						schedule(depth + 1)
					}
				}
			})
			if after {
				e.After(d, h)
			} else {
				e.At(at, h)
			}
		}
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		e.Run()

		want := make([]int, len(scheduled))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return scheduled[want[i]].Before(scheduled[want[j]]) })
		if len(ran) != len(want) {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(ran), len(want))
		}
		for i := range want {
			if ran[i] != want[i] {
				t.Fatalf("seed %d: position %d ran event %d, want %d", seed, i, ran[i], want[i])
			}
		}
	}
}

// TestInstantsOutsideUnixNanoRangePanic pins At's range check: the last
// representable nanosecond is accepted and runs after earlier events,
// while one nanosecond later, and any instant before the first
// representable nanosecond, panics instead of wrapping round.
func TestInstantsOutsideUnixNanoRangePanic(t *testing.T) {
	last := time.Date(2262, 4, 11, 23, 47, 16, 854775807, time.UTC)
	first := time.Date(1677, 9, 21, 0, 12, 43, 145224192, time.UTC)
	mustPanic := func(e *Engine, at time.Time) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("At(%v) did not panic", at)
			}
		}()
		e.At(at, Func(func() {}))
	}

	e := NewEngine(t0)
	var ran []time.Time
	record := Func(func() { ran = append(ran, e.Now()) })
	e.At(last, record)
	e.At(last.Add(-24*time.Hour), record)
	mustPanic(e, last.Add(time.Nanosecond))
	mustPanic(e, last.AddDate(500, 0, 0))
	e.Run()
	if len(ran) != 2 || !ran[0].Equal(last.Add(-24*time.Hour)) || !ran[1].Equal(last) {
		t.Errorf("ran at %v, want the day before %v and then it", ran, last)
	}

	early := NewEngine(time.Date(1000, 1, 1, 0, 0, 0, 0, time.UTC))
	mustPanic(early, first.Add(-time.Nanosecond))
	mustPanic(early, time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC))
	early.At(first, Func(func() {}))
	if end := early.Run(); !end.Equal(first) {
		t.Errorf("event at %v ran at %v", first, end)
	}
}

// TestExecutionOrderAcrossHorizons is TestExecutionOrderProperty over
// every tier of the calendar queue: delays of zero, sub-bucket
// nanoseconds, link delays, MRAI ± one bucket, the wheel's window ± 1 ns,
// bucket boundaries ± 1 ns, hours, and exact repeats of instants already
// scheduled (ties between events that entered the queue in different
// tiers), with RunUntil deadlines interleaved. Each seed starts with a
// deadline that stops short of the next occupied bucket, so the peek
// makes that bucket current, followed by At(now) landing before it.
// Execution order must equal a stable sort of every scheduled event by
// instant.
func TestExecutionOrderAcrossHorizons(t *testing.T) {
	const (
		bucket = time.Duration(1) << bucketShift
		window = wheelSize * bucket
	)
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		e := NewEngine(t0)
		var scheduled []time.Time // by scheduling order
		var ran []int
		horizon := func() time.Duration {
			now := e.Now()
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return time.Duration(rng.Intn(int(bucket)))
			case 2:
				return 20*time.Millisecond + time.Duration(rng.Intn(int(980*time.Millisecond)))
			case 3:
				return 30*time.Second + time.Duration(rng.Intn(3)-1)*bucket
			case 4:
				return window + time.Duration(rng.Intn(3)-1)
			case 5:
				return time.Duration(1+rng.Intn(48))*time.Hour + time.Duration(rng.Intn(int(time.Second)))
			case 6:
				b := now.UnixNano()>>bucketShift + 1 + int64(rng.Intn(wheelSize+2))
				return time.Duration(b<<bucketShift-now.UnixNano()) + time.Duration(rng.Intn(3)-1)
			default:
				if at := scheduled[rng.Intn(len(scheduled))]; !at.Before(now) {
					return at.Sub(now)
				}
				return 0
			}
		}
		var schedule func(d time.Duration, depth int)
		schedule = func(d time.Duration, depth int) {
			id := len(scheduled)
			at := e.Now().Add(d)
			scheduled = append(scheduled, at)
			e.At(at, Func(func() {
				if !e.Now().Equal(at) {
					t.Errorf("seed %d: event %d ran at %v, scheduled for %v", seed, id, e.Now(), at)
				}
				ran = append(ran, id)
				if depth < 4 {
					for k := rng.Intn(3); k > 0; k-- {
						schedule(horizon(), depth+1)
					}
				}
			}))
		}

		schedule(10*bucket, 0)
		e.RunUntil(t0.Add(2 * bucket))
		if e.queue.cur <= bucketOf(e.Now().UnixNano()) {
			t.Fatalf("seed %d: the deadline's peek left bucket %d current, want one past the clock's", seed, e.queue.cur)
		}
		schedule(0, 0)
		schedule(bucket, 0)
		for i := 0; i < 60; i++ {
			schedule(horizon(), 0)
		}
		for round := 0; round < 30; round++ {
			e.RunUntil(e.Now().Add(horizon()))
			for k := rng.Intn(4); k > 0; k-- {
				schedule(horizon(), 1)
			}
		}
		e.Run()

		want := make([]int, len(scheduled))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return scheduled[want[i]].Before(scheduled[want[j]]) })
		if len(ran) != len(want) {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(ran), len(want))
		}
		for i := range want {
			if ran[i] != want[i] {
				t.Fatalf("seed %d: position %d ran event %d at %v, want event %d at %v", seed, i, ran[i], scheduled[ran[i]], want[i], scheduled[want[i]])
			}
		}
	}
}
