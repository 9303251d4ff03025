// Package netsim is a deterministic discrete-event simulation kernel. The
// BGP router network, the beacon schedulers and the collectors all run on
// one Engine: components schedule handlers at virtual times and the engine
// executes them in time order with a deterministic tie-break, so an entire
// measurement campaign (months of virtual time) runs in milliseconds and is
// exactly reproducible.
package netsim

import (
	"fmt"
	"math"
	"time"
)

// Handler is work scheduled on an Engine. A model type that is itself the
// scheduled work (an in-flight message, say) implements Handler directly,
// so scheduling it costs no allocation beyond the value itself.
type Handler interface {
	Handle()
}

// Func adapts a plain callback to Handler.
type Func func()

// Handle calls f.
func (f Func) Handle() { f() }

// event is one queue entry. key is the instant's UnixNano; slot indexes
// the Engine's slot table, which holds the handler and the instant as
// given. The entry holds no pointers, so the queue moves plain words and
// the garbage collector never scans it.
type event struct {
	key  int64
	seq  uint64 // FIFO tie-break for equal instants
	slot int32
}

// slot is the pointer-carrying half of a scheduled event. at is kept as
// given so Now reports the scheduled time in its original representation.
type slot struct {
	at time.Time
	h  Handler
}

// less orders events by instant, then by scheduling order. seq is unique,
// so this is a strict total order and the pop sequence is fully
// determined by the schedule.
//
//lint:hotpath
func (a *event) less(b *event) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// queue is a 4-ary min-heap of events held by value: the children of i
// are 4i+1 … 4i+4. The wider fan-out halves the tree depth of a binary
// heap, and value storage keeps the events contiguous. The calendar keeps
// its events beyond the wheel's window in one.
type queue []event

// push inserts ev.
//
//lint:hotpath
func (q *queue) push(ev event) {
	h := append(*q, ev) //lint:allow hotpath amortised growth; steady-state pushes reuse capacity
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h[i].less(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes and returns the minimum event. The queue must be non-empty.
//
//lint:hotpath
func (q *queue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if h[j].less(&h[m]) {
					m = j
				}
			}
			if !h[m].less(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}

// Engine is the simulation clock and event loop. The zero value is not
// usable; construct with NewEngine. Engine is single-threaded by design:
// all model code runs inside event handlers on the calling goroutine,
// which is what makes runs deterministic without locks.
//
// Events are ordered by the instant's UnixNano and then by scheduling
// order, so virtual times must lie in UnixNano's range: from
// 1677-09-21T00:12:43.145224192Z to 2262-04-11T23:47:16.854775807Z. At
// panics outside it.
type Engine struct {
	now   time.Time
	queue calendar
	seq   uint64
	// slots holds each queued event's instant and handler; free lists the
	// slots whose events have run, for reuse by the next At.
	slots []slot
	free  []int32
}

// The first and last instants whose UnixNano does not overflow.
var (
	minInstant = time.Unix(0, math.MinInt64)
	maxInstant = time.Unix(0, math.MaxInt64)
)

// NewEngine returns an engine whose clock starts at start.
func NewEngine(start time.Time) *Engine {
	e := &Engine{now: start}
	e.queue.cur = bucketOf(start.UnixNano())
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// At schedules h to run at the absolute virtual time at. Scheduling in the
// past (before Now) panics: that is always a model bug, and silently
// reordering events would destroy causality. So does an instant outside
// UnixNano's range, whose key would wrap and misorder it.
func (e *Engine) At(at time.Time, h Handler) {
	if at.Before(e.now) {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, e.now))
	}
	if at.Before(minInstant) || at.After(maxInstant) {
		panic(fmt.Sprintf("netsim: scheduling event at %v outside the UnixNano range [%v, %v]", at, minInstant.UTC(), maxInstant.UTC()))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[i] = slot{at: at, h: h}
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{at: at, h: h})
	}
	e.seq++
	e.queue.push(event{key: at.UnixNano(), seq: e.seq, slot: i})
}

// After schedules h to run d after the current virtual time.
func (e *Engine) After(d time.Duration, h Handler) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	e.At(e.now.Add(d), h)
}

// Run executes events until the queue is empty. It returns the virtual
// time of the last event executed.
func (e *Engine) Run() time.Time {
	for {
		ev, ok := e.queue.pop()
		if !ok {
			return e.now
		}
		e.fire(ev.slot)
	}
}

// fire frees slot i, advances the clock to its instant and runs its
// handler.
func (e *Engine) fire(i int32) {
	s := e.slots[i]
	e.slots[i] = slot{} // drop the handler reference for the collector
	e.free = append(e.free, i)
	e.now = s.at
	s.h.Handle()
}
