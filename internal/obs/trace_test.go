package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilTraceNoOps: the whole trace API must be callable through nil
// receivers and trace-free contexts — untraced requests pay pointer
// checks, nothing else.
func TestNilTraceNoOps(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.Export() != nil {
		t.Error("nil Trace methods must be no-ops")
	}
	var s *TraceSpan
	if s.Name() != "" {
		t.Error("nil TraceSpan identity must be empty")
	}
	s.SetAttr("k", 1) // must not panic
	if s.StartChild("x") != nil {
		t.Error("nil span StartChild must return nil")
	}
	if s.End() != 0 {
		t.Error("nil span End must return 0")
	}
	var e *TraceExport
	if e.Canonical() != nil {
		t.Error("nil export Canonical must return nil")
	}

	ctx := context.Background()
	if SpanFromContext(ctx) != nil || TraceFromContext(ctx) != nil {
		t.Error("fresh context must carry no span")
	}
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan(nil span) must return ctx unchanged")
	}
	span, ctx2 := StartTraceSpan(ctx, "stage")
	if span != nil || ctx2 != ctx {
		t.Error("StartTraceSpan without a trace must be a no-op")
	}
	span.SetAttr("k", "v") // nil span from a trace-free ctx: still safe
	span.End()
}

// TestTraceIDsDeterministic: IDs are pure functions of identity and tree
// position — two traces built the same way agree bit for bit.
func TestTraceIDsDeterministic(t *testing.T) {
	build := func() *TraceExport {
		tr := NewTrace("job", "request-hash-123")
		root := tr.Root()
		a := root.StartChild("dataset")
		a.End()
		for i := 0; i < 3; i++ {
			c := root.StartChild("mh")
			c.SetAttr("chain", i)
			c.End()
		}
		root.End()
		return tr.Export()
	}
	x, y := build().Canonical(), build().Canonical()
	if !reflect.DeepEqual(x, y) {
		t.Errorf("canonical exports differ:\n%+v\n%+v", x, y)
	}
	if x.TraceID == "" || x.Root.SpanID == "" {
		t.Error("IDs must be non-empty")
	}
	// A different identity must move the whole ID space.
	other := NewTrace("job", "request-hash-456")
	if other.ID() == x.TraceID {
		t.Error("different identities share a trace ID")
	}
	if other.Root().id == x.Root.SpanID {
		t.Error("different identities share a root span ID")
	}
	// Same-named siblings get distinct ordinal-derived IDs.
	kids := x.Root.Children
	if len(kids) != 4 {
		t.Fatalf("children = %d, want 4", len(kids))
	}
	if kids[1].SpanID == kids[2].SpanID {
		t.Error("same-named siblings share a span ID")
	}
}

// TestTraceContextCarriage: StartTraceSpan nests spans along the context
// chain.
func TestTraceContextCarriage(t *testing.T) {
	tr := NewTrace("job", "id")
	ctx := ContextWithSpan(context.Background(), tr.Root())
	if TraceFromContext(ctx) != tr {
		t.Fatal("TraceFromContext lost the trace")
	}
	infer, ctx2 := StartTraceSpan(ctx, "infer")
	if infer == nil || SpanFromContext(ctx2) != infer {
		t.Fatal("StartTraceSpan did not reposition the context")
	}
	leaf, _ := StartTraceSpan(ctx2, "summarize")
	leaf.End()
	infer.End()
	tr.Root().End()

	e := tr.Export()
	if e.Spans != 3 || tr.spans != 3 {
		t.Errorf("span count = %d / %d, want 3", e.Spans, tr.spans)
	}
	if len(e.Root.Children) != 1 || e.Root.Children[0].Name != "infer" {
		t.Fatalf("root children = %+v", e.Root.Children)
	}
	if len(e.Root.Children[0].Children) != 1 || e.Root.Children[0].Children[0].Name != "summarize" {
		t.Fatalf("infer children = %+v", e.Root.Children[0].Children)
	}
}

// TestTraceAttrs: last write per key wins, insertion order preserved,
// attrs survive End.
func TestTraceAttrs(t *testing.T) {
	tr := NewTrace("job", "id")
	s := tr.Root().StartChild("mh")
	s.SetAttr("chain", 0)
	s.SetAttr("sweeps", 100)
	s.End()
	s.SetAttr("acceptance", 0.25) // post-End attach, the fan-out join pattern
	s.SetAttr("chain", 1)         // overwrite keeps position

	e := tr.Export()
	got := e.Root.Children[0].Attrs
	want := []TraceAttr{{Key: "chain", Value: 1}, {Key: "sweeps", Value: 100}, {Key: "acceptance", Value: 0.25}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attrs = %+v, want %+v", got, want)
	}
}

// TestTraceExportJSON: the export marshals to the documented field names.
func TestTraceExportJSON(t *testing.T) {
	tr := NewTrace("job", "id")
	tr.Root().StartChild("infer").End()
	tr.Root().End()
	raw, err := json.Marshal(tr.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace_id"`, `"span_count":2`, `"span_id"`, `"name":"infer"`, `"start_us"`, `"duration_us"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("export JSON missing %s: %s", want, raw)
		}
	}
}

// TestTraceConcurrentSpans: concurrent children on one parent are safe
// under the race detector (creation-order determinism is the caller's
// contract, exercised by the core reproducibility harness).
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("job", "id")
	spans := make([]*TraceSpan, 8)
	for i := range spans {
		spans[i] = tr.Root().StartChild("chain") // pre-created, fixed order
	}
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spans[i].End()
		}(i)
	}
	wg.Wait()
	for i := range spans {
		spans[i].SetAttr("chain", i)
	}
	if got := tr.spans; got != 9 {
		t.Errorf("span count = %d, want 9", got)
	}
}
