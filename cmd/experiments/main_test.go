package main

import (
	"context"
	"errors"
	"testing"
)

func TestRunSelectedExperiments(t *testing.T) {
	// fig2 and fig5 are self-contained (no suite campaigns), so this stays
	// fast while exercising the selection and rendering plumbing.
	o := options{seed: 2020, pairs: 1, scale: "small", only: "fig2,fig5"}
	if err := run(context.Background(), o, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	o := options{seed: 1, pairs: 1, scale: "galactic", only: "fig2"}
	if err := run(context.Background(), o, nil); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunStopsOnCancel(t *testing.T) {
	// An interrupted run reports the cancellation instead of going on to
	// the next experiment.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := options{seed: 2020, pairs: 1, scale: "small", only: "fig2,fig5"}
	if err := run(ctx, o, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
