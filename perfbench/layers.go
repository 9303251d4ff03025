package main

// Per-layer measurement: spans around each call into a layer, the program's
// own trace spans beneath them, self times per layer, and the shape check
// of the traced run.

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"

	"because/internal/core"
	"because/internal/obs"
)

//go:embed workloads.json
var workloadsJSON []byte

// catalog is the decoded workloads.json.
type catalog struct {
	Workloads []struct {
		Name    string `json:"name"`
		Clients int    `json:"clients"`
	} `json:"workloads"`
	Layers []struct {
		Metrics []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"metrics"`
		MeasuredOn []string `json:"measured_on"`
	} `json:"layers"`
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

// clients returns the workload's client count.
func (c *catalog) clients(workload string) int {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Clients
		}
	}
	return 0
}

// layerMetric is one per-layer metric and whether the workload must
// produce it.
type layerMetric struct {
	name, unit string
	required   bool
}

// layerMetrics lists every per-layer metric in catalog order.
func (c *catalog) layerMetrics(workload string) []layerMetric {
	var out []layerMetric
	for _, l := range c.Layers {
		required := false
		for _, w := range l.MeasuredOn {
			required = required || w == workload
		}
		for _, m := range l.Metrics {
			out = append(out, layerMetric{name: m.Name, unit: m.Unit, required: required})
		}
	}
	return out
}

// sample is one op's outcome.
type sample struct {
	lat float64 // wall seconds
	err error   // non-nil marks the op failed
	// Traced ops only: per-op layer metric values, and self seconds per
	// layer (which must be non-negative and sum to at most lat).
	layers   map[string]float64
	self     map[string]float64
	problems []string // shape-check failures found in the op's trace
}

// inSpan runs fn under a child span of ctx's trace; without a trace it
// just runs fn.
func inSpan(ctx context.Context, name string, fn func(context.Context) error) error {
	span, ctx := obs.StartTraceSpan(ctx, name)
	err := fn(ctx)
	span.End()
	return err
}

// allocMeter measures heap allocation and GC CPU time over an interval of
// a traced op. Untraced, it does nothing.
type allocMeter struct {
	on     bool
	before [2]metrics.Sample
}

var allocMetrics = [2]string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func (m *allocMeter) start(traced bool) {
	m.on = traced
	if traced {
		m.before = readAlloc()
	}
}

// stop records the allocated megabytes under allocKey and, when gcKey is
// set, the GC CPU seconds under gcKey.
func (m *allocMeter) stop(into map[string]float64, allocKey, gcKey string) {
	if !m.on {
		return
	}
	after := readAlloc()
	into[allocKey] = float64(after[0].Value.Uint64()-m.before[0].Value.Uint64()) / (1 << 20)
	if gcKey != "" {
		into[gcKey] = after[1].Value.Float64() - m.before[1].Value.Float64()
	}
}

func readAlloc() [2]metrics.Sample {
	var s [2]metrics.Sample
	for i, name := range allocMetrics {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return s
}

// selfTimes sums each span's self time — its duration minus its
// children's — into the layer layerOf names. Exported durations are
// truncated to microseconds, so a self time down to minus one microsecond
// per child is rounding and counts as zero; any span whose children
// outlast it beyond that is reported as a shape problem.
func selfTimes(root *obs.SpanExport, layerOf func(string) string) (map[string]float64, []string) {
	out := map[string]float64{}
	var problems []string
	var walk func(s *obs.SpanExport)
	walk = func(s *obs.SpanExport) {
		self := s.DurUS
		for _, c := range s.Children {
			self -= c.DurUS
			walk(c)
		}
		if self < 0 && self >= -int64(len(s.Children)) {
			self = 0
		}
		if self < 0 {
			problems = append(problems, fmt.Sprintf("span %s: negative self time %dus", s.Name, self))
		}
		out[layerOf(s.Name)] += float64(self) / 1e6
	}
	walk(root)
	return out, problems
}

// chainsInSequence corrects the sampler chain spans of a trace, in place.
// core opens every chain's span when it prepares the fan-out, before any
// chain runs, so with chains running one after another (Workers 1, as in
// every workload here) a chain's span also covers its wait for the chains
// before it. Each chain's time is therefore taken from the later of its
// span's start and the previous chain's end.
func chainsInSequence(root *obs.SpanExport) *obs.SpanExport {
	for _, sample := range findSpans(root, func(n string) bool { return n == "sample" }) {
		chains := append([]*obs.SpanExport(nil), sample.Children...)
		sort.Slice(chains, func(i, j int) bool {
			return chains[i].StartUS+chains[i].DurUS < chains[j].StartUS+chains[j].DurUS
		})
		prevEnd := int64(math.MinInt64)
		for _, c := range chains {
			end := c.StartUS + c.DurUS
			c.StartUS = max(c.StartUS, prevEnd)
			c.DurUS = end - c.StartUS
			prevEnd = end
		}
	}
	return root
}

// findSpans returns every span in the tree whose name satisfies match.
func findSpans(root *obs.SpanExport, match func(string) bool) []*obs.SpanExport {
	var out []*obs.SpanExport
	var walk func(s *obs.SpanExport)
	walk = func(s *obs.SpanExport) {
		if s == nil {
			return
		}
		if match(s.Name) {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// spanSeconds sums the durations of the spans named name.
func spanSeconds(root *obs.SpanExport, name string) float64 {
	total := 0.0
	for _, s := range findSpans(root, func(n string) bool { return n == name }) {
		total += float64(s.DurUS) / 1e6
	}
	return total
}

// chainMethod names the sampler of a chain span: "mh" for the MH chains
// ("mh[00]", ...), "hmc" for the HMC run.
func chainMethod(span string) (string, bool) {
	switch {
	case span == "hmc":
		return "hmc", true
	case strings.HasPrefix(span, "mh["):
		return "mh", true
	}
	return "", false
}

// isChainSpan reports whether a span is a sampler chain.
func isChainSpan(span string) bool {
	_, ok := chainMethod(span)
	return ok
}

// attr reads a numeric span attribute (a Go number in a live export, a
// float64 once the export went through JSON).
func attr(s *obs.SpanExport, key string) (float64, bool) {
	for _, a := range s.Attrs {
		if a.Key != key {
			continue
		}
		switch v := a.Value.(type) {
		case float64:
			return v, true
		case int:
			return float64(v), true
		}
	}
	return 0, false
}

// samplerMetrics reads the sampler stages of one inference from its trace:
// chain seconds, acceptance and divergences under prefix ("core" or
// "churn"), plus summarise and pinpoint under core.
func samplerMetrics(root *obs.SpanExport, prefix string, into map[string]float64) {
	for _, s := range findSpans(root, isChainSpan) {
		method, _ := chainMethod(s.Name)
		into[prefix+"."+method+"_s"] += float64(s.DurUS) / 1e6
		if prefix != "core" {
			continue
		}
		if v, ok := attr(s, "acceptance"); ok {
			into["core."+method+".accept"] = v
		}
		if v, ok := attr(s, "divergent"); ok {
			into["core.hmc.divergences"] = v
		}
	}
	if prefix == "core" {
		into["core.summarize_s"] = spanSeconds(root, "summarize")
		into["core.pinpoint_s"] = spanSeconds(root, "pinpoint")
	}
}

// essPerSecond returns each sampler's minimum-over-ASes effective sample
// size per chain-second, the chain seconds read from the trace.
func essPerSecond(res *core.Result, root *obs.SpanExport) (mh, hmc float64) {
	seconds := map[string]float64{}
	for _, s := range findSpans(root, isChainSpan) {
		method, _ := chainMethod(s.Name)
		seconds[method] += float64(s.DurUS) / 1e6
	}
	minESS := map[string]float64{"mh": math.Inf(1), "hmc": math.Inf(1)}
	for _, c := range res.Chains {
		for i := range res.Summaries {
			minESS[c.Method] = math.Min(minESS[c.Method], core.ESS(c.Marginal(i)))
		}
	}
	// A sampler that did not run reports 0 (Inf/0 and Inf/x print as 0).
	return minESS["mh"] / seconds["mh"], minESS["hmc"] / seconds["hmc"]
}

// layerReport aggregates the traced ops into the per-layer metrics: the
// median per-op value of each op-level metric, the phase-level extras, the
// share of op time each layer's self time takes, and the tracing overhead.
// It returns the shape-check failures alongside.
func layerReport(cat *catalog, workload string, traced []sample, extras map[string]float64, overhead float64) (map[string]float64, []string) {
	values := map[string][]float64{}
	selfTotal := map[string]float64{}
	wall := 0.0
	var problems []string
	for i, s := range traced {
		if s.err != nil {
			continue
		}
		for k, v := range s.layers {
			values[k] = append(values[k], v)
		}
		for _, p := range s.problems {
			problems = append(problems, fmt.Sprintf("op %d: %s", i, p))
		}
		sum := 0.0
		for layer, v := range s.self {
			if v < 0 {
				problems = append(problems, fmt.Sprintf("op %d: negative self time %.6fs in layer %s", i, v, layer))
			}
			selfTotal[layer] += v
			sum += v
		}
		if sum > s.lat {
			problems = append(problems, fmt.Sprintf("op %d: layer self times sum to %.6fs, above the op's %.6fs", i, sum, s.lat))
		}
		wall += s.lat
	}
	out := map[string]float64{}
	for k, vs := range values {
		out[k] = median(vs)
	}
	for k, v := range extras {
		out[k] = v
	}
	for layer, v := range selfTotal {
		if wall > 0 {
			out["share."+layer] = v / wall
		}
	}
	out["trace.overhead_share"] = overhead
	listed := map[string]bool{}
	for _, m := range cat.layerMetrics(workload) {
		listed[m.name] = true
		if _, ok := out[m.name]; !ok {
			// A layer with no self time has share 0; any other listed
			// metric of a layer the workload measures must be produced.
			if m.required && !strings.HasPrefix(m.name, "share.") {
				problems = append(problems, fmt.Sprintf("layer metric %s missing from the traced run", m.name))
			}
			out[m.name] = 0
		}
	}
	var unlisted []string
	for k := range out {
		if !listed[k] {
			unlisted = append(unlisted, k)
		}
	}
	sort.Strings(unlisted)
	for _, k := range unlisted {
		problems = append(problems, fmt.Sprintf("traced run produced unlisted metric %s", k))
	}
	return out, problems
}
