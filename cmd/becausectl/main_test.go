package main

import (
	"encoding/json"
	"net/http/httptest"

	"because/internal/serve"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"because/internal/obs"
)

func TestDecodeArrayAndNDJSON(t *testing.T) {
	array := []byte(`[{"path":[1,2],"positive":true},{"path":[3],"positive":false,"weight":2}]`)
	recs, err := decode(bytes.NewReader(array))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || !recs[0].Positive || recs[1].Weight != 2 {
		t.Fatalf("array decode = %+v", recs)
	}

	ndjson := []byte(`{"path":[1,2],"positive":true}
{"path":[3],"positive":false}
`)
	recs, err = decode(bytes.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Positive {
		t.Fatalf("ndjson decode = %+v", recs)
	}

	if _, err := decode(bytes.NewReader([]byte(`{"path":`))); err == nil {
		t.Error("garbage accepted")
	}
}

// writeQuickstart writes the quickstart-style dataset (AS 7 damps).
func writeQuickstart(t *testing.T) string {
	t.Helper()
	in := filepath.Join(t.TempDir(), "paths.json")
	data := `[
	  {"path":[1,7,3],"positive":true},
	  {"path":[2,7,4],"positive":true},
	  {"path":[5,7,6],"positive":true},
	  {"path":[1,9,3],"positive":false},
	  {"path":[2,9,4],"positive":false},
	  {"path":[1,2,3],"positive":false}
	]`
	if err := os.WriteFile(in, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunEndToEnd(t *testing.T) {
	in := writeQuickstart(t)
	base := options{in: in, seed: 1, prior: "sparse", mhSweeps: 300, hmcIters: 100, chains: 1}
	for _, jsonOut := range []bool{false, true} {
		o := base
		o.jsonOut = jsonOut
		if err := run(o, nil, io.Discard); err != nil {
			t.Fatalf("run(json=%v): %v", jsonOut, err)
		}
	}
	o := base
	o.prior = "nonsense"
	if err := run(o, nil, io.Discard); err == nil {
		t.Error("unknown prior accepted")
	}
	o = base
	o.in = filepath.Join(t.TempDir(), "missing.json")
	if err := run(o, nil, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	o = base
	o.in = empty
	if err := run(o, nil, io.Discard); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestRunChainsRHatColumn exercises the -chains satellite: multi-chain runs
// must reach the core R-hat diagnostics and render the extra column.
func TestRunChainsRHatColumn(t *testing.T) {
	in := writeQuickstart(t)
	var out bytes.Buffer
	o := options{in: in, seed: 1, prior: "sparse", mhSweeps: 300, hmcIters: 100, chains: 3, missRate: 0.05}
	if err := run(o, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rhat") {
		t.Errorf("no rhat column with -chains 3:\n%s", out.String())
	}
}

// TestMetricsEndpoint is the acceptance check: a run with an observer
// serves a Prometheus /metrics page carrying sampler acceptance-rate and
// sweep-counter series.
func TestMetricsEndpoint(t *testing.T) {
	in := writeQuickstart(t)
	observer, err := obs.NewLeveled("", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := obs.Serve("127.0.0.1:0", observer.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	o := options{in: in, seed: 1, prior: "sparse", mhSweeps: 300, hmcIters: 100, chains: 2}
	if err := run(o, observer, io.Discard); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		`because_sampler_acceptance_rate{chain="0",method="mh"}`,
		`because_sampler_acceptance_rate{chain="1",method="mh"}`,
		`because_sampler_acceptance_rate{chain="0",method="hmc"}`,
		`because_sampler_sweeps_total{chain="0",method="mh"} 375`,
		`because_infer_runs_total 1`,
		"because_infer_rhat_max",
		"because_stage_duration_seconds_bucket",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q:\n%s", want, page)
		}
	}
}

// TestTraceOut: -trace-out writes a JSON trace document whose span tree is
// deterministic for the same invocation, regardless of -workers.
func TestTraceOut(t *testing.T) {
	in := writeQuickstart(t)
	runOnce := func(workers int) map[string]any {
		t.Helper()
		out := filepath.Join(t.TempDir(), "trace.json")
		o := options{in: in, seed: 1, prior: "sparse", mhSweeps: 200, hmcIters: 80, chains: 2, workers: workers, traceOut: out}
		if err := run(o, nil, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("trace file is not JSON: %v", err)
		}
		return doc
	}
	t1 := runOnce(1)
	t4 := runOnce(4)
	if t1["trace_id"] == "" || t1["trace_id"] != t4["trace_id"] {
		t.Errorf("trace IDs differ across -workers: %v vs %v", t1["trace_id"], t4["trace_id"])
	}
	root, ok := t1["root"].(map[string]any)
	if !ok || root["name"] != "becausectl" {
		t.Errorf("trace root = %v, want becausectl span", t1["root"])
	}
	if n, ok := t1["span_count"].(float64); !ok || n < 5 {
		t.Errorf("span_count = %v, want the full stage tree", t1["span_count"])
	}
}

// TestRunRemote drives the full remote mode against an in-process
// becaused handler: SSE progress on stderr is consumed, the result renders
// through the shared table path, and -trace-out captures the server-side
// job trace.
func TestRunRemote(t *testing.T) {
	srv := serve.New(serve.Config{ChainWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	in := writeQuickstart(t)
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	o := options{in: in, seed: 1, prior: "sparse", mhSweeps: 200, hmcIters: 80, chains: 2,
		remote: ts.URL, traceOut: traceOut}
	if err := run(o, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "observations: 6 paths") {
		t.Errorf("remote run table:\n%s", out.String())
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Root struct {
			Name string `json:"name"`
		} `json:"root"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Root.Name != "job" {
		t.Errorf("remote trace root = %q, want job", doc.Root.Name)
	}

	// Remote and local runs agree on the report set.
	var local bytes.Buffer
	lo := options{in: in, seed: 1, prior: "sparse", mhSweeps: 200, hmcIters: 80, chains: 2, jsonOut: true}
	if err := run(lo, nil, &local); err != nil {
		t.Fatal(err)
	}
	var remote bytes.Buffer
	ro := o
	ro.traceOut = ""
	ro.jsonOut = true
	if err := run(ro, nil, &remote); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("remote reports differ from local:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}

	// A daemon rejection surfaces as an error, not a hang.
	bad := o
	bad.traceOut = ""
	bad.prior = "nonsense"
	if err := run(bad, nil, io.Discard); err == nil {
		t.Error("remote run accepted an invalid prior")
	}
}
