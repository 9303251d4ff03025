package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names emitted by the pipeline. Centralised so the
// README, the instrumentation sites and the tests agree on spelling.
const (
	// Sampler metrics, labeled method="mh"|"hmc" and chain="0","1",...
	MetricSweeps      = "because_sampler_sweeps_total"
	MetricAcceptance  = "because_sampler_acceptance_rate"
	MetricSweepRate   = "because_sampler_sweeps_per_second"
	MetricDivergences = "because_sampler_divergences_total"

	// Whole-inference metrics.
	MetricInferRuns  = "because_infer_runs_total"
	MetricInferNodes = "because_infer_nodes"
	MetricInferPaths = "because_infer_paths"
	MetricRHatMax    = "because_infer_rhat_max"
	MetricESSMin     = "because_infer_ess_min"

	// Pipeline stage durations, labeled stage="sample"|"summarize"|
	// "pinpoint"|"label"|"campaign" (see Observer.StartSpan).
	MetricStageSeconds = "because_stage_duration_seconds"

	// Worker-pool metrics, labeled pool="infer"|"campaigns"|"experiments"|
	// "archive". Busy is the number of tasks currently executing; Tasks
	// counts completed tasks.
	MetricPoolBusy  = "because_pool_busy_workers"
	MetricPoolTasks = "because_pool_tasks_total"

	// Per-chain sampler wall time, labeled method="mh"|"hmc" — one
	// observation per chain per inference run, so tail latency across an
	// ensemble is visible even when chains run concurrently.
	MetricChainSeconds = "because_chain_duration_seconds"

	// Measurement pipeline, labeled project="ris"|"routeviews"|"isolario".
	MetricCollectorUpdates = "because_collector_updates_total"
	MetricLabelPaths       = "because_label_paths_total"
	MetricLabelRFDPaths    = "because_label_rfd_paths_total"
	MetricLabelPairs       = "because_label_pairs_total"

	// becaused serving metrics. Requests is labeled endpoint="infer"|
	// "healthz" and code="200"|"429"|... ; the gauges track the job queue
	// (InFlight = jobs currently sampling, QueueDepth = admitted jobs
	// waiting for a worker); the cache counters expose the result cache's
	// effectiveness.
	MetricServeRequests    = "because_serve_requests_total"
	MetricServeInFlight    = "because_serve_inflight_jobs"
	MetricServeQueueDepth  = "because_serve_queue_depth"
	MetricServeCacheHits   = "because_serve_cache_hits_total"
	MetricServeCacheMisses = "because_serve_cache_misses_total"
	MetricServeJobSeconds  = "because_serve_job_duration_seconds"
	// Job-API metrics: Jobs counts jobs reaching a terminal state, labeled
	// state="done"|"failed"|"cancelled"; SSEEvents counts progress events
	// actually written to event streams (inline ?stream=1 and
	// /v1/jobs/{id}/events combined).
	MetricServeJobs      = "because_serve_jobs_total"
	MetricServeSSEEvents = "because_serve_sse_events_total"
)

// DurationBuckets are the default histogram buckets for stage spans, in
// seconds: sub-millisecond labeling up to multi-minute inference runs.
var DurationBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Counter is a monotonically increasing metric. The nil counter is a
// valid no-op, so instrumentation sites never need nil checks of their own.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric. The nil gauge is a valid no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the value by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets, Prometheus-style.
// The nil histogram is a valid no-op.
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // immutable after construction: ascending bucket upper bounds; +Inf is implicit
	counts []uint64  //lint:guard mu — len(upper)+1; last is the overflow (+Inf) bucket
	sum    float64   //lint:guard mu
	count  uint64    //lint:guard mu
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Sum returns the total of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) instance of a metric.
type series struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name    string
	kind    metricKind
	buckets []float64
	series  map[string]*series
}

// Registry holds metrics and renders them in Prometheus text exposition
// format or as a flat snapshot for tests. The nil registry is a valid
// no-op: every accessor returns a nil metric handle, whose methods do
// nothing. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family //lint:guard mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns (creating if needed) the counter for name and label
// pairs (alternating key, value). Registering the same name as a
// different metric kind panics: that is a programming error.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, kindCounter, nil, labels)
	return s.counter
}

// Gauge returns (creating if needed) the gauge for name and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.seriesFor(name, kindGauge, nil, labels)
	return s.gauge
}

// Histogram returns (creating if needed) the histogram for name and label
// pairs. buckets are ascending upper bounds; nil selects DurationBuckets.
// The bucket layout is fixed by the first registration of the name.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	s := r.seriesFor(name, kindHistogram, buckets, labels)
	return s.hist
}

func (r *Registry) seriesFor(name string, kind metricKind, buckets []float64, labels []string) *series {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			h := &Histogram{upper: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
			s.hist = h
		}
		f.series[key] = s
	}
	return s
}

// labelKey renders label pairs, sorted by key, as {k="v",k2="v2"}. An odd
// trailing label is ignored.
func labelKey(labels []string) string {
	n := len(labels) / 2
	if n == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, n)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// withLabel splices an extra label into a rendered label set, keeping the
// Prometheus convention that histogram bucket series carry le="...".
func withLabel(rendered, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the text exposition format,
// families sorted by name and series by label set — deterministic output,
// suitable both for scraping and for golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
			case kindHistogram:
				h := s.hist
				h.mu.Lock()
				cum := uint64(0)
				for i, bound := range h.upper {
					cum += h.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", formatFloat(bound)), cum)
				}
				cum += h.counts[len(h.upper)]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(h.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, h.count)
				h.mu.Unlock()
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}
