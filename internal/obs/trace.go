package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// Request-scoped tracing.
//
// A Trace is a tree of named spans covering one inference request: the
// job envelope, the dataset build, every sampler chain, summarisation and
// pinpointing. It complements the process-wide Registry (aggregates) with
// a per-request view — where did THIS run's time go — exportable as one
// JSON document from becaused's job API or becausectl's -trace-out.
//
// Determinism contract. Trace and span IDs are pure functions of the
// caller-supplied trace identity and the span's position in the tree
// (parent ID, name, sibling ordinal) — never of the clock, scheduling or
// worker count. Span creation order must itself be deterministic: callers
// that fan spans out across goroutines pre-create them in a fixed order
// before launching (exactly how internal/core pre-splits RNG streams), so
// the exported tree — IDs, names, nesting, attributes — is bit-identical
// at any Config.Workers. Only the start_us/duration_us timings vary; they
// are observability-only wall-clock reads confined to this package.
//
// The nil *Trace and nil *TraceSpan are complete no-ops, like every other
// type in this package: untraced requests pay one pointer check per site.

// Trace is one request-scoped span tree. Construct with NewTrace; the nil
// Trace is a no-op.
type Trace struct {
	mu    sync.Mutex
	id    string     // immutable after NewTrace
	root  *TraceSpan // immutable after NewTrace (span fields are guarded by mu)
	epoch time.Time  // immutable after NewTrace
	spans int        //lint:guard mu
}

// NewTrace starts a trace whose root span carries name. identity is the
// deterministic request identity the trace ID is derived from — becaused
// uses the canonical request hash, becausectl a hash of its input — so
// identical requests always produce identical trace IDs.
func NewTrace(name, identity string) *Trace {
	t := &Trace{
		id: deriveID("trace", name, identity, 0),
		// Observability-only clock read: the epoch anchors span offsets,
		// never any result.
		epoch: time.Now(), //lint:allow determinism
	}
	t.root = &TraceSpan{
		trace: t,
		name:  name,
		id:    deriveID("span", t.id, name, 0),
		start: t.epoch,
	}
	t.spans = 1
	return t
}

// deriveID hashes the components into a 16-hex-digit identifier.
func deriveID(kind, parent, name string, ordinal int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("because-%s\x00%s\x00%s\x00%d", kind, parent, name, ordinal)))
	return hex.EncodeToString(sum[:8])
}

// ID returns the trace identifier ("" for the nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil for the nil trace).
func (t *Trace) Root() *TraceSpan {
	if t == nil {
		return nil
	}
	return t.root
}

// SpanCount returns how many spans the trace holds so far.
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// TraceSpan is one timed, attributed node of a trace. Obtain the root from
// NewTrace, children from StartChild, and pipeline stages from
// Observer.StartSpan; the nil span is a no-op. A span with no trace is a
// detached stage timer (see Observer.StartSpan): only its owner ends it.
type TraceSpan struct {
	trace    *Trace
	obs      *Observer // stage span: End reports the duration here
	name     string
	id       string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []TraceAttr
	children []*TraceSpan
}

// TraceAttr is one span attribute. Attributes keep insertion order, which
// must itself be deterministic (set them from one goroutine, or after a
// fan-out has been joined).
type TraceAttr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// StartChild opens a child span. The child's ID derives from the parent's
// ID, the name and the ordinal among same-named siblings — scheduling
// never enters. For a deterministic tree, create concurrent siblings in a
// fixed order before fanning out (distinct names per sibling).
func (s *TraceSpan) StartChild(name string) *TraceSpan {
	if s == nil {
		return nil
	}
	return s.startChild(name, nil)
}

// startChild is StartChild for a stage span reporting to o (nil for a
// plain trace span). A detached parent has no trace to record into.
func (s *TraceSpan) startChild(name string, o *Observer) *TraceSpan {
	t := s.trace
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ordinal := 0
	for _, c := range s.children {
		if c.name == name {
			ordinal++
		}
	}
	child := &TraceSpan{
		trace: t,
		obs:   o,
		name:  name,
		id:    deriveID("span", s.id, name, ordinal),
		// Observability-only clock read: feeds start_us/duration_us.
		start: time.Now(), //lint:allow determinism
	}
	s.children = append(s.children, child)
	t.spans++
	return child
}

// ID returns the span identifier ("" for the nil span).
func (s *TraceSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Name returns the span name ("" for the nil span).
func (s *TraceSpan) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr records a key/value attribute on the span (last write per key
// wins at export; insertion order is preserved). Safe to call after End —
// sampler statistics are typically attached once a fan-out has joined,
// so attribute order stays deterministic.
func (s *TraceSpan) SetAttr(key string, value any) {
	if s == nil || s.trace == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, TraceAttr{Key: key, Value: value})
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration; an unended span exports with the duration it has accumulated
// at export time. The first End of a stage span also observes the
// duration into MetricStageSeconds and logs "stage done" at debug.
func (s *TraceSpan) End() time.Duration {
	if s == nil {
		return 0
	}
	d, first := s.close()
	if first && s.obs != nil {
		s.obs.Histogram(MetricStageSeconds, nil, "stage", s.name).Observe(d.Seconds())
		s.obs.Log(LevelDebug, "stage done", "stage", s.name, "seconds", d.Seconds())
	}
	return d
}

// close fixes the span's duration once and reports whether this call did.
func (s *TraceSpan) close() (time.Duration, bool) {
	if t := s.trace; t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	if s.ended {
		return s.dur, false
	}
	// Observability-only clock read: fixes duration_us.
	s.dur = time.Since(s.start) //lint:allow determinism
	s.ended = true
	return s.dur, true
}

// TraceExport is the JSON document form of a trace: the trace ID and the
// span tree. Timings are microsecond offsets from the trace epoch; the
// tree shape, span IDs, names and attributes are deterministic per
// request, the timings are not.
type TraceExport struct {
	TraceID string      `json:"trace_id"`
	Spans   int         `json:"span_count"`
	Root    *SpanExport `json:"root"`
}

// SpanExport is one exported span node.
type SpanExport struct {
	SpanID   string        `json:"span_id"`
	Name     string        `json:"name"`
	StartUS  int64         `json:"start_us"`
	DurUS    int64         `json:"duration_us"`
	Attrs    []TraceAttr   `json:"attrs,omitempty"`
	Children []*SpanExport `json:"children,omitempty"`
}

// Export snapshots the trace as an exportable document. Safe to call while
// spans are still being recorded (becaused exports live traces from the
// job-status endpoint); children appear in creation order.
func (t *Trace) Export() *TraceExport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TraceExport{TraceID: t.id, Spans: t.spans, Root: t.exportSpanLocked(t.root)}
}

// exportSpanLocked renders one span subtree; caller holds the trace lock.
func (t *Trace) exportSpanLocked(s *TraceSpan) *SpanExport {
	if s == nil {
		return nil
	}
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start) //lint:allow determinism — observability-only clock read
	}
	out := &SpanExport{
		SpanID:  s.id,
		Name:    s.name,
		StartUS: s.start.Sub(t.epoch).Microseconds(),
		DurUS:   dur.Microseconds(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = append([]TraceAttr(nil), s.attrs...)
	}
	for _, c := range s.children {
		out.Children = append(out.Children, t.exportSpanLocked(c))
	}
	return out
}

// Canonical strips the scheduling-dependent timings from the export,
// leaving exactly the deterministic surface: IDs, names, nesting and
// attributes. The reproducibility harness compares Canonical forms across
// worker counts.
func (e *TraceExport) Canonical() *TraceExport {
	if e == nil {
		return nil
	}
	return &TraceExport{TraceID: e.TraceID, Spans: e.Spans, Root: e.Root.canonical()}
}

func (s *SpanExport) canonical() *SpanExport {
	if s == nil {
		return nil
	}
	out := &SpanExport{SpanID: s.SpanID, Name: s.Name, Attrs: s.Attrs}
	for _, c := range s.Children {
		out.Children = append(out.Children, c.canonical())
	}
	return out
}

// traceCtxKey carries the current span through a context.
type traceCtxKey struct{}

// ContextWithSpan returns a context carrying span as the current trace
// position; StartTraceSpan and SpanFromContext read it back. A nil span
// returns ctx unchanged.
func ContextWithSpan(ctx context.Context, span *TraceSpan) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, span)
}

// SpanFromContext returns the current span, or nil when ctx carries none.
func SpanFromContext(ctx context.Context) *TraceSpan {
	if ctx == nil {
		return nil
	}
	span, _ := ctx.Value(traceCtxKey{}).(*TraceSpan)
	return span
}

// TraceFromContext returns the trace the current span belongs to, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	if s := SpanFromContext(ctx); s != nil {
		return s.trace
	}
	return nil
}

// StartTraceSpan opens a child of ctx's current span and returns it along
// with a context positioned on the child. When ctx carries no trace the
// span is nil (a no-op) and ctx is returned unchanged — untraced callers
// pay a map lookup, nothing more.
func StartTraceSpan(ctx context.Context, name string) (*TraceSpan, context.Context) {
	return startTraceSpan(ctx, name, nil)
}

// startTraceSpan is StartTraceSpan for a stage span reporting to o.
func startTraceSpan(ctx context.Context, name string, o *Observer) (*TraceSpan, context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := SpanFromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	child := parent.startChild(name, o)
	return child, ContextWithSpan(ctx, child)
}
