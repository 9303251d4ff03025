package netsim

import (
	"testing"
	"time"
)

var t0 = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine(t0)
	var order []int
	e.At(t0.Add(3*time.Second), func() { order = append(order, 3) })
	e.At(t0.Add(1*time.Second), func() { order = append(order, 1) })
	e.At(t0.Add(2*time.Second), func() { order = append(order, 2) })
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
		e.At(at, func() { order = append(order, i) })
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
	e.After(time.Second, func() {
		times = append(times, e.Now())
		e.After(2*time.Second, func() {
			times = append(times, e.Now())
		})
	})
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
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("past scheduling did not panic")
			}
		}()
		e.At(t0, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(t0)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(t0)
	ran := 0
	for i := 1; i <= 10; i++ {
		e.At(t0.Add(time.Duration(i)*time.Minute), func() { ran++ })
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
				e.After(time.Duration(n%3+1)*time.Second, func() { step(n + 1) })
			}
		}
		e.After(0, func() { step(0) })
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
