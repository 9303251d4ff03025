package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "ERROR": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("bogus level accepted")
	}
}

func TestTextLogger(t *testing.T) {
	var b strings.Builder
	l := NewTextLogger(&b, LevelInfo)
	l.now = func() time.Time { return time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC) }

	l.Log(LevelDebug, "hidden")
	if b.Len() != 0 {
		t.Errorf("debug leaked below min level: %q", b.String())
	}
	if l.Enabled(LevelDebug) || !l.Enabled(LevelWarn) {
		t.Error("Enabled thresholds wrong")
	}

	l.Log(LevelInfo, "mh chain done", "chain", 0, "acceptance", 0.25, "note", "two words")
	want := `2020-03-01T00:00:00Z info mh chain done chain=0 acceptance=0.25 note="two words"` + "\n"
	if b.String() != want {
		t.Errorf("line = %q, want %q", b.String(), want)
	}

	b.Reset()
	l.Log(LevelWarn, "odd", "dangling")
	if !strings.Contains(b.String(), "!MISSING=dangling") {
		t.Errorf("odd kv not flagged: %q", b.String())
	}
}

func TestNopLogger(t *testing.T) {
	l := Nop()
	if l.Enabled(LevelError) {
		t.Error("nop logger claims enabled")
	}
	l.Log(LevelError, "dropped") // must not panic
}

// TestSpanRecordsDuration: a stage span observes its duration into the
// stage histogram exactly once, whether it joins the context's trace or
// runs detached, and only the traced one becomes a trace node.
func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry()
	o := New(nil, r)
	tr := NewTrace("job", "stage-metric")
	for _, ctx := range []context.Context{context.Background(), ContextWithSpan(context.Background(), tr.Root())} {
		sp, _ := o.StartSpan(ctx, "label")
		time.Sleep(time.Millisecond)
		if d := sp.End(); d <= 0 {
			t.Errorf("span duration = %v", d)
		}
		sp.End()
	}
	h := r.Histogram(MetricStageSeconds, nil, "stage", "label")
	if h.count != 2 || h.Sum() <= 0 {
		t.Errorf("stage histogram count=%d sum=%g, want one observation per span", h.count, h.Sum())
	}
	if n := tr.spans; n != 2 {
		t.Errorf("trace holds %d spans, want root + the traced stage", n)
	}
}

func TestProgressAcceptanceRate(t *testing.T) {
	if got := (Progress{}).AcceptanceRate(); got != 0 {
		t.Errorf("empty progress rate = %g", got)
	}
	if got := (Progress{Accepted: 1, Proposed: 4}).AcceptanceRate(); got != 0.25 {
		t.Errorf("rate = %g, want 0.25", got)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricSweeps, "method", "mh", "chain", "0").Add(42)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, `because_sampler_sweeps_total{chain="0",method="mh"} 42`) {
		t.Errorf("/metrics missing series:\n%s", metrics)
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index not mounted")
	}
}

func TestNewLeveled(t *testing.T) {
	o, err := NewLeveled("", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || o.Metrics == nil {
		t.Fatal("observer without a registry: /metrics would be empty")
	}
	if o.Logger.Enabled(LevelError) {
		t.Error("empty level enabled logging")
	}
	var buf strings.Builder
	o, err = NewLeveled("debug", &buf)
	if err != nil {
		t.Fatalf("level debug rejected: %v", err)
	}
	o.Log(LevelDebug, "hello")
	if !strings.Contains(buf.String(), "debug hello") {
		t.Errorf("debug record not written to the writer: %q", buf.String())
	}
	if _, err := NewLeveled("bogus", io.Discard); err == nil {
		t.Error("bogus log level accepted")
	}
}
