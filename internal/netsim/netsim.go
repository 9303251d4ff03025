// Package netsim is a deterministic discrete-event simulation kernel. The
// BGP router network, the beacon schedulers and the collectors all run on
// one Engine: components schedule callbacks at virtual times and the engine
// executes them in time order with a deterministic tie-break, so an entire
// measurement campaign (months of virtual time) runs in milliseconds and is
// exactly reproducible.
package netsim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // FIFO tie-break for equal timestamps
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is the simulation clock and event loop. The zero value is not
// usable; construct with NewEngine. Engine is single-threaded by design:
// all model code runs inside event callbacks on the calling goroutine,
// which is what makes runs deterministic without locks.
type Engine struct {
	now   time.Time
	queue eventQueue
	seq   uint64
}

// NewEngine returns an engine whose clock starts at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past (before Now) panics: that is always a model bug, and silently
// reordering events would destroy causality.
func (e *Engine) At(at time.Time, fn func()) {
	if at.Before(e.now) {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// Run executes events until the queue is empty. It returns the virtual
// time of the last event executed.
func (e *Engine) Run() time.Time {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, advances the clock
// to exactly deadline, and leaves later events queued.
func (e *Engine) RunUntil(deadline time.Time) {
	for len(e.queue) > 0 && !e.queue[0].at.After(deadline) {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		ev.fn()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}
