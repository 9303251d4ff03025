// Package obs is BeCAUSe's dependency-free observability layer: a metrics
// registry with Prometheus text exposition, structured leveled logging, and
// request-scoped traces of timed, attributed spans. Every type treats its
// nil value as a no-op, so instrumented code pays only a nil check when
// observability is not wired up — library callers that never touch this
// package lose nothing.
//
// The pipeline threads a single *Observer (logger + registry) through the
// measurement stages (campaign, collection, labeling) and the inference
// stages (sampling, summarization, pinpointing), and the current trace
// span through the context. TraceSpan is the one span type: a stage opens
// it with Observer.StartSpan and ends it once, and that End both closes
// the node in the context's trace and feeds the stage-duration histogram.
// The CLIs expose the registry over HTTP via Serve and render sampler
// progress from Progress events.
package obs

import (
	"context"
	"io"
	"strconv"
	"time"
)

// Observer bundles a logger and a metrics registry — the instrumentation
// context handed through the pipeline. The nil *Observer is a complete
// no-op; every method is nil-safe.
type Observer struct {
	Logger  Logger
	Metrics *Registry
}

// New returns an observer over the given logger (nil → Nop) and registry
// (nil → metrics dropped).
func New(logger Logger, metrics *Registry) *Observer {
	if logger == nil {
		logger = Nop()
	}
	return &Observer{Logger: logger, Metrics: metrics}
}

// NewLeveled is the command-line observer bootstrap: a fresh registry
// always (it only costs when scraped) and a text logger writing to w at
// the named minimum level ("" keeps logging off). An unknown level is an
// error.
func NewLeveled(level string, w io.Writer) (*Observer, error) {
	logger := Nop()
	if level != "" {
		min, err := ParseLevel(level)
		if err != nil {
			return nil, err
		}
		logger = NewTextLogger(w, min)
	}
	return New(logger, NewRegistry()), nil
}

// Log emits a record through the attached logger, if any.
func (o *Observer) Log(level Level, msg string, kv ...any) {
	if o == nil || o.Logger == nil {
		return
	}
	o.Logger.Log(level, msg, kv...)
}

// Counter returns the named counter (nil handle when unobserved).
func (o *Observer) Counter(name string, labels ...string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name, labels...)
}

// Gauge returns the named gauge (nil handle when unobserved).
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name, labels...)
}

// Histogram returns the named histogram (nil handle when unobserved).
func (o *Observer) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, buckets, labels...)
}

// StartSpan opens the pipeline stage name: the child of ctx's current
// trace span, returned with a context positioned on it, whose End also
// records the stage's wall time into MetricStageSeconds{stage=name} and
// logs "stage done" at debug. When ctx carries no trace the span is
// detached — it times the stage for the metric but joins no trace, has no
// children or attributes, and ctx comes back unchanged. On the nil
// observer StartSpan is StartTraceSpan.
func (o *Observer) StartSpan(ctx context.Context, name string) (*TraceSpan, context.Context) {
	if o == nil {
		return StartTraceSpan(ctx, name)
	}
	span, ctx := startTraceSpan(ctx, name, o)
	if span == nil {
		span = &TraceSpan{obs: o, name: name, start: time.Now()} //lint:allow determinism — observability-only stage timing
	}
	return span, ctx
}

// Progress is one sampler progress event. The public API exports it as
// because.ProgressEvent.
type Progress struct {
	// Stage is the sampler ("mh" or "hmc").
	Stage string
	// Chain is the chain index within a multi-chain ensemble.
	Chain int
	// Done and Total count sweeps (MH) or trajectories (HMC), burn-in
	// included.
	Done, Total int
	// Accepted and Proposed are the running Metropolis decision counts.
	Accepted, Proposed int
}

// AcceptanceRate returns Accepted/Proposed (0 before any proposal).
func (p Progress) AcceptanceRate() float64 {
	if p.Proposed == 0 {
		return 0
	}
	return float64(p.Accepted) / float64(p.Proposed)
}

// ProgressFunc receives sampler progress events. Called synchronously from
// the sampling loop: keep it fast.
type ProgressFunc func(Progress)

// ChainLabel renders a chain index as a metric label value.
func ChainLabel(chain int) string { return strconv.Itoa(chain) }
