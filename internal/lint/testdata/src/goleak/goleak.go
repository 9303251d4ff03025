// Package goleak seeds goroutine launches with and without provable
// join/cancellation disciplines for the goleak analyzer.
package goleak

import (
	"context"
	"sync"
)

// Leak launches a goroutine nothing ever joins: flagged.
func Leak() {
	go func() {
		for {
		}
	}()
}

// WGJoined pairs Add before the launch with Done in the body: silent.
func WGJoined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// MissingAdd calls Done but never Add before the launch: flagged.
func MissingAdd() {
	var wg sync.WaitGroup
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// CtxParented selects on ctx.Done() in the body: silent.
func CtxParented(ctx context.Context) {
	go func() {
		select {
		case <-ctx.Done():
		}
	}()
}

// ChanJoined closes a local channel the caller receives from: silent.
func ChanJoined() {
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	<-done
}

// NamedLeak launches a named function with no discipline: flagged.
func NamedLeak() { go spin() }

func spin() {
	for {
	}
}

// NamedJoined launches a named function whose summary blocks on
// ctx.Done(): silent.
func NamedJoined(ctx context.Context) { go ctxWorker(ctx) }

func ctxWorker(ctx context.Context) { <-ctx.Done() }

// MethodValue launches through a function value holding a method whose
// summary is disciplined: silent (resolved via reaching definitions).
type runner struct{}

func (runner) loop(ctx context.Context) { <-ctx.Done() }

func MethodValue(ctx context.Context) {
	r := runner{}
	f := r.loop
	go f(ctx)
}

// ValueLeak launches through a function value holding an undisciplined
// literal: flagged.
func ValueLeak() {
	f := func() {
		for {
		}
	}
	go f()
}

// Delegated launches a literal that hands its lifetime to a disciplined
// module function: silent (summary propagation).
func Delegated(ctx context.Context) {
	go func() {
		ctxWorker(ctx)
	}()
}

// Allowed is undisciplined but carries a justified allow: silent.
func Allowed() {
	//lint:allow goleak fixture suppression case
	go func() {
		for {
		}
	}()
}

// CtxThenChan waits for cancellation, then drains a channel it does
// not own: silent (the later plain receive does not undo the ctx.Done()
// discipline).
func CtxThenChan(ctx context.Context, ch chan int) {
	go func() {
		<-ctx.Done()
		<-ch
	}()
}
