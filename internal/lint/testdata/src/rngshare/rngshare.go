// Package rngshare seeds cross-goroutine RNG sharing for its golden test.
package rngshare

import (
	"because/internal/par"
	"because/internal/stats"
	"context"
)

// Shared captures the parent generator in a go statement: flagged.
func Shared(rng *stats.RNG) []float64 {
	out := make([]float64, 2)
	done := make(chan struct{})
	go func() {
		out[0] = rng.Float64()
		close(done)
	}()
	out[1] = rng.Float64()
	<-done
	return out
}

// PoolShared hands the parent generator to a par.Group task: flagged.
func PoolShared(rng *stats.RNG) float64 {
	g := par.NewGroupContext(context.Background(), 2, nil, "fixture")
	var v float64
	g.Go(func() error {
		v = rng.Float64()
		return nil
	})
	_ = g.Wait()
	return v
}

// ArgShared passes the generator into the goroutine by argument: flagged.
func ArgShared(rng *stats.RNG) {
	go consume(rng)
}

func consume(*stats.RNG) {}

// PreSplit follows the discipline — one Split stream per task: not
// flagged (false-positive guard).
func PreSplit(rng *stats.RNG) float64 {
	stream := rng.Split()
	g := par.NewGroupContext(context.Background(), 2, nil, "fixture")
	var v float64
	g.Go(func() error {
		v = stream.Float64()
		return nil
	})
	_ = g.Wait()
	return v
}

// DirectSplit hands a freshly split stream straight to the goroutine:
// not flagged.
func DirectSplit(rng *stats.RNG) {
	go consume(rng.Split())
}

// Allowed carries the escape hatch: suppressed.
func Allowed(rng *stats.RNG) {
	go consume(rng) //lint:allow rngshare — fixture suppression case
}

// Rebound splits, then re-binds the stream variable back to the shared
// generator before launching: flagged. Only the reaching-definitions
// engine sees this — a flow-insensitive scan finds the Split assignment
// and stops looking.
func Rebound(rng *stats.RNG) {
	stream := rng.Split()
	stream = rng
	go consume(stream)
}

// AliasPreSplit launches with an alias of a split stream: not flagged
// (the alias chain resolves to a Split in this function; the old
// direct-assignment scan used to reject this).
func AliasPreSplit(rng *stats.RNG) {
	stream := rng.Split()
	alias := stream
	go consume(alias)
}

// SplitAfterLaunch splits only after the goroutine is already running
// with the shared generator: flagged (the later Split cannot reach the
// launch point).
func SplitAfterLaunch(rng *stats.RNG) {
	shared := rng
	go consume(shared)
	shared = rng.Split()
	_ = shared
}
