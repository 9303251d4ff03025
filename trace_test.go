package because

import (
	"context"
	"math"
	"reflect"
	"testing"

	"because/internal/obs"
)

// TestInferContextTraceDeterministic: InferContext records the pipeline
// stage tree into a ctx-carried trace, the canonical export (IDs, names,
// nesting, attributes) is identical across worker counts and with or
// without an Observer attached, and the results stay bit-identical with a
// trace attached.
func TestInferContextTraceDeterministic(t *testing.T) {
	run := func(workers int, o *obs.Observer) (*Result, *obs.TraceExport) {
		opts := fastOpts(9)
		opts.Workers = workers
		opts.Chains = 2
		opts.Obs = o
		tr := obs.NewTrace("job", "root-trace")
		ctx := obs.ContextWithSpan(context.Background(), tr.Root())
		res, err := InferContext(ctx, plantedObs(), opts)
		if err != nil {
			t.Fatal(err)
		}
		tr.Root().End()
		return res, tr.Export()
	}
	res1, tr1 := run(1, nil)
	res4, tr4 := run(4, nil)
	if !reflect.DeepEqual(tr1.Canonical(), tr4.Canonical()) {
		t.Error("canonical trace differs between workers=1 and workers=4")
	}
	if _, trObs := run(1, obs.New(nil, obs.NewRegistry())); !reflect.DeepEqual(tr1.Canonical(), trObs.Canonical()) {
		t.Error("canonical trace differs with an Observer attached")
	}
	// Stage tree: root → infer → {dataset, sample, summarize, pinpoint}.
	if tr1.Root == nil || len(tr1.Root.Children) == 0 || tr1.Root.Children[0].Name != "infer" {
		t.Fatalf("trace root = %+v, want an infer child", tr1.Root)
	}
	stages := map[string]bool{}
	for _, c := range tr1.Root.Children[0].Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"dataset", "sample", "summarize", "pinpoint"} {
		if !stages[want] {
			t.Errorf("missing stage span %q (got %v)", want, stages)
		}
	}
	// Cheap bit-identity guard so a trace-induced perturbation fails here
	// too, not only in the core harness.
	if len(res1.Reports) != len(res4.Reports) {
		t.Fatal("report counts differ across worker counts")
	}
	for i := range res1.Reports {
		if math.Float64bits(res1.Reports[i].Mean) != math.Float64bits(res4.Reports[i].Mean) {
			t.Errorf("report %d mean differs across worker counts", i)
		}
	}
}

// TestInferPlainContextUntraced: without a trace on ctx, inference runs
// with every span site a no-op and the result matches a traced run bit
// for bit — tracing is observation, never perturbation.
func TestInferPlainContextUntraced(t *testing.T) {
	opts := fastOpts(9)
	plain, err := InferContext(context.Background(), plantedObs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("job", "perturbation-check")
	traced, err := InferContext(obs.ContextWithSpan(context.Background(), tr.Root()), plantedObs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Reports) != len(traced.Reports) {
		t.Fatal("report counts differ")
	}
	for i := range plain.Reports {
		if math.Float64bits(plain.Reports[i].Mean) != math.Float64bits(traced.Reports[i].Mean) {
			t.Errorf("report %d: traced run perturbed the posterior mean", i)
		}
	}
	if tr.SpanCount() < 5 {
		t.Errorf("traced run recorded %d spans, want the full stage tree", tr.SpanCount())
	}
}
