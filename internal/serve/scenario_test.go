package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"because/internal/obs"
	"because/internal/scenario"
)

func TestScenarioList(t *testing.T) {
	srv := New(Config{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/scenarios", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/scenarios = %d: %s", rec.Code, rec.Body)
	}
	var list ScenarioList
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.SchemaVersion != 1 {
		t.Errorf("schema_version = %d", list.SchemaVersion)
	}
	if len(list.Scenarios) != len(scenario.Names()) {
		t.Fatalf("listed %d scenarios, corpus has %d", len(list.Scenarios), len(scenario.Names()))
	}
	for i, name := range scenario.Names() {
		if list.Scenarios[i].Name != name {
			t.Errorf("scenario[%d] = %q, want %q (sorted corpus order)", i, list.Scenarios[i].Name, name)
		}
		if list.Scenarios[i].Workload == "" {
			t.Errorf("scenario %q has empty workload", name)
		}
	}
}

func TestScenarioInferUnknown(t *testing.T) {
	srv := New(Config{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios/no-such/infer", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown scenario = %d, want 404: %s", rec.Code, rec.Body)
	}
}

// TestCorpusResolvesAndKeys backs the scenario handlers' unreachable 500
// branches: every corpus name resolves and keys, and a name that only
// cleans to a corpus file is unknown (404), not a 500.
func TestCorpusResolvesAndKeys(t *testing.T) {
	keys := map[string]string{}
	for _, name := range scenario.Names() {
		spec, err := scenario.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		key, err := scenarioRequestKey(spec)
		if err != nil {
			t.Fatalf("scenarioRequestKey(%q): %v", name, err)
		}
		if other, ok := keys[key]; ok {
			t.Errorf("%s and %s share a cache key", name, other)
		}
		keys[key] = name
	}
	h := New(Config{}).Handler()
	for _, name := range []string{"..%2Fscenarios%2Fsmall-world", ".%2Fsmall-world", "x%2F..%2Fsmall-world"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios/"+name+"/infer", nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("scenario %q = %d, want 404: %s", name, rec.Code, rec.Body)
		}
	}
}

func TestScenarioInferBadBody(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	for _, body := range []string{`{"bogus":1}`, `{"schema_version":99}`, `nope`} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios/small-world/infer", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q = %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
}

// TestScenarioInferRunsAndCaches executes the cheapest corpus scenario
// over HTTP: the first request runs the campaign and inference inside a
// job, the second is a cache hit that skips the campaign entirely and
// returns the identical outcome document.
func TestScenarioInferRunsAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	observer := obs.New(nil, obs.NewRegistry())
	srv := New(Config{Obs: observer})
	h := srv.Handler()

	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios/small-world/infer", strings.NewReader(`{"schema_version":1}`)))
		return rec
	}
	first := post()
	if first.Code != http.StatusOK {
		t.Fatalf("first POST = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	var env struct {
		SchemaVersion int             `json:"schema_version"`
		Cached        bool            `json:"cached"`
		JobID         string          `json:"job_id"`
		Result        json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.JobID == "" {
		t.Error("scenario run minted no job")
	}
	var out scenario.Outcome
	if err := json.Unmarshal(env.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "small-world" || out.Workload != "rfd" {
		t.Errorf("outcome identifies as %q/%q", out.Name, out.Workload)
	}
	if !out.OK() {
		t.Errorf("scenario expectations failed over HTTP: %v", out.Failures)
	}

	second := post()
	if second.Code != http.StatusOK {
		t.Fatalf("second POST = %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	var env2 struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(second.Body.Bytes(), &env2); err != nil {
		t.Fatal(err)
	}
	if string(env.Result) != string(env2.Result) {
		t.Error("cached outcome differs from the computed one")
	}
}
