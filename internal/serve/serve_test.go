package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"because"
	"because/internal/obs"
)

// fakeResult is a tiny but structurally complete inference outcome.
func fakeResult() *because.Result {
	return &because.Result{
		Reports:      []because.ASReport{{AS: 7, Mean: 0.9, Category: because.CategoryHighlyLikely}},
		MHAcceptance: 0.5,
	}
}

// countingInfer returns an InferFunc that counts invocations and returns
// fakeResult.
func countingInfer(calls *atomic.Int64) InferFunc {
	return func(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
		calls.Add(1)
		return fakeResult(), nil
	}
}

const smallBody = `{"observations":[{"path":[64500,64510],"positive":true},{"path":[64500,64520],"positive":false}],"options":{"seed":1}}`

func postInfer(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body))
	h.ServeHTTP(rec, req)
	return rec
}

func TestCacheHitOnRepeatQuery(t *testing.T) {
	var calls atomic.Int64
	observer := obs.New(nil, obs.NewRegistry())
	srv := New(Config{Obs: observer, Infer: countingInfer(&calls)})
	h := srv.Handler()

	first := postInfer(t, h, smallBody)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	second := postInfer(t, h, smallBody)
	if second.Code != http.StatusOK {
		t.Fatalf("second POST = %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if calls.Load() != 1 {
		t.Errorf("inference ran %d times for identical queries, want 1", calls.Load())
	}

	var env struct {
		SchemaVersion int             `json:"schema_version"`
		Cached        bool            `json:"cached"`
		Result        json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(second.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.SchemaVersion != because.SchemaVersion || !env.Cached || len(env.Result) == 0 {
		t.Errorf("hit envelope = %+v", env)
	}

	snap := observer.Metrics.Snapshot()
	if got := snap[obs.MetricServeCacheHits]; got != 1 {
		t.Errorf("cache hits counter = %g, want 1", got)
	}
	if got := snap[obs.MetricServeCacheMisses]; got != 1 {
		t.Errorf("cache misses counter = %g, want 1", got)
	}
	if got := snap[obs.MetricServeRequests+`{code="200",endpoint="infer"}`]; got != 2 {
		t.Errorf("request counter = %g, want 2", got)
	}
}

// TestDefaultOptionsShareCacheEntry: `{}` options and the spelled-out paper
// defaults canonicalise to the same key, so they share one cache entry.
func TestDefaultOptionsShareCacheEntry(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Infer: countingInfer(&calls)})
	h := srv.Handler()
	implicit := `{"observations":[{"path":[64500,64510],"positive":true}]}`
	explicit := `{"observations":[{"path":[64500,64510],"positive":true}],` +
		`"options":{"prior":"sparse","mh_sweeps":1500,"mh_burn_in":375,"hmc_iterations":800,"hmc_burn_in":200,"chains":1,"hdpi_mass":0.95,"pinpoint_threshold":0.8}}`
	if rec := postInfer(t, h, implicit); rec.Code != http.StatusOK {
		t.Fatalf("implicit POST = %d: %s", rec.Code, rec.Body)
	}
	rec := postInfer(t, h, explicit)
	if rec.Code != http.StatusOK {
		t.Fatalf("explicit POST = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("explicit-defaults X-Cache = %q, want hit (key fragmentation)", got)
	}
	if calls.Load() != 1 {
		t.Errorf("inference ran %d times, want 1", calls.Load())
	}
}

func TestCacheDisabled(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{CacheSize: -1, Infer: countingInfer(&calls)})
	h := srv.Handler()
	postInfer(t, h, smallBody)
	postInfer(t, h, smallBody)
	if calls.Load() != 2 {
		t.Errorf("inference ran %d times with cache disabled, want 2", calls.Load())
	}
}

func TestRequestKeySemantics(t *testing.T) {
	obsA := []because.PathObservation{
		{Path: []because.ASN{1, 2}, ShowsProperty: true},
		{Path: []because.ASN{3, 4}},
	}
	base := requestKey(obsA, because.Options{Seed: 1})
	if got := requestKey(obsA, because.Options{Seed: 2}); got == base {
		t.Error("different seeds share a key")
	}
	// Observation order fixes the RNG stream: swapping must change the key.
	obsSwapped := []because.PathObservation{obsA[1], obsA[0]}
	if got := requestKey(obsSwapped, because.Options{Seed: 1}); got == base {
		t.Error("reordered observations share a key")
	}
	// Weight 0 means the default weight 1 on the API.
	obsWeighted := []because.PathObservation{
		{Path: []because.ASN{1, 2}, ShowsProperty: true, Weight: 1},
		{Path: []because.ASN{3, 4}, Weight: 1},
	}
	if got := requestKey(obsWeighted, because.Options{Seed: 1}); got != base {
		t.Error("weight 0 and explicit weight 1 must share a key")
	}
	// Worker counts never change output bits and must not fragment the key.
	if got := requestKey(obsA, because.Options{Seed: 1, Workers: 8}); got != base {
		t.Error("worker count fragments the cache key")
	}
}

func TestBackpressure429(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv := New(Config{
		Jobs:       1,
		QueueDepth: -1, // no waiting room: one running job saturates the service
		CacheSize:  -1,
		Infer: func(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
			once.Do(func() { close(started) })
			<-release
			return fakeResult(), nil
		},
	})
	h := srv.Handler()

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- postInfer(t, h, smallBody)
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first job never started")
	}

	second := postInfer(t, h, `{"observations":[{"path":[9,10],"positive":true}]}`)
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429", second.Code)
	}
	if got := second.Header().Get("Retry-After"); got == "" {
		t.Error("429 response missing Retry-After")
	}

	close(release)
	if first := <-firstDone; first.Code != http.StatusOK {
		t.Errorf("first POST = %d after release: %s", first.Code, first.Body)
	}
	// With the worker free again the service admits new jobs.
	if rec := postInfer(t, h, smallBody); rec.Code != http.StatusOK {
		t.Errorf("post-release POST = %d", rec.Code)
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{
		Jobs:      1,
		CacheSize: -1,
		Infer: func(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
			close(started)
			<-release
			return fakeResult(), nil
		},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	respDone := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/infer", "application/json", strings.NewReader(smallBody))
		if err != nil {
			respDone <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			respDone <- fmt.Errorf("in-flight request = %d", resp.StatusCode)
			return
		}
		respDone <- nil
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight job, not abandon it.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v while a job was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-respDone; err != nil {
		t.Errorf("in-flight request: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v", err)
	}
}

func TestDrainingRefusesNewWork(t *testing.T) {
	srv := New(Config{Infer: countingInfer(new(atomic.Int64))})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if rec := postInfer(t, h, smallBody); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining POST = %d, want 503", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", rec.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	observer := obs.New(nil, obs.NewRegistry())
	var calls atomic.Int64
	srv := New(Config{Obs: observer, Infer: countingInfer(&calls)})
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}

	postInfer(t, h, smallBody)
	postInfer(t, h, smallBody)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		obs.MetricServeCacheHits + " 1",
		obs.MetricServeCacheMisses + " 1",
		obs.MetricServeInFlight,
		obs.MetricServeQueueDepth,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestValidationStatuses(t *testing.T) {
	srv := New(Config{Infer: countingInfer(new(atomic.Int64))})
	h := srv.Handler()
	cases := []struct {
		name  string
		body  string
		code  int
		field string
	}{
		{"malformed json", `{"observations":`, http.StatusBadRequest, ""},
		{"wrong schema version", `{"schema_version":99,"observations":[{"path":[1,2],"positive":true}]}`, http.StatusBadRequest, "schema_version"},
		{"no observations", `{"observations":[]}`, http.StatusUnprocessableEntity, ""},
		{"unknown prior", `{"observations":[{"path":[1,2]}],"options":{"prior":"bogus"}}`, http.StatusUnprocessableEntity, "prior"},
		{"bad miss rate", `{"observations":[{"path":[1,2]}],"options":{"miss_rate":2}}`, http.StatusUnprocessableEntity, "miss_rate"},
		{"negative sweeps", `{"observations":[{"path":[1,2]}],"options":{"mh_sweeps":-5}}`, http.StatusUnprocessableEntity, "mh_sweeps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postInfer(t, h, tc.body)
			if rec.Code != tc.code {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.code, rec.Body)
			}
			var env struct {
				SchemaVersion int    `json:"schema_version"`
				Error         string `json:"error"`
				Field         string `json:"field"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if env.SchemaVersion != because.SchemaVersion || env.Error == "" {
				t.Errorf("error envelope = %+v", env)
			}
			if env.Field != tc.field {
				t.Errorf("field = %q, want %q", env.Field, tc.field)
			}
		})
	}
}

// Validation failures surfaced by the infer call itself (per-observation
// checks live in because.InferContext) also map to 422.
func TestInferValidationErrorMapsTo422(t *testing.T) {
	srv := New(Config{}) // real because.InferContext
	h := srv.Handler()
	for _, tc := range []struct{ name, body, field string }{
		{"empty path", `{"observations":[{"path":[],"positive":true}]}`, "observations[0].path"},
		{"repeated AS", `{"observations":[{"path":[2,3]},{"path":[1,1],"positive":true}]}`, "observations[1].path"},
	} {
		rec := postInfer(t, h, tc.body)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s POST = %d, want 422: %s", tc.name, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), tc.field) {
			t.Errorf("%s: error body does not name %s: %s", tc.name, tc.field, rec.Body)
		}
	}
}

func TestCancelledJobMapsTo499(t *testing.T) {
	observer := obs.New(nil, obs.NewRegistry())
	srv := New(Config{
		Obs: observer,
		Infer: func(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
			return nil, context.Canceled
		},
	})
	rec := postInfer(t, srv.Handler(), smallBody)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("cancelled job status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	snap := observer.Metrics.Snapshot()
	if got := snap[obs.MetricServeRequests+`{code="499",endpoint="infer"}`]; got != 1 {
		t.Errorf("499 counter = %g, want 1", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := New(Config{Infer: countingInfer(new(atomic.Int64))})
	h := srv.Handler()
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/infer"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/metrics"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader("{}")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
		}
	}
}

func TestBodyTooLarge(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 64, Infer: countingInfer(new(atomic.Int64))})
	rec := postInfer(t, srv.Handler(), smallBody)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversize body = %d, want 400", rec.Code)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	// "b" is now coldest; inserting "c" evicts it.
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently-used entry evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Refreshing an existing key replaces the payload without growing.
	c.put("a", []byte("A2"))
	if v, _ := c.get("a"); string(v) != "A2" {
		t.Errorf("refreshed payload = %q", v)
	}
	if c.len() != 2 {
		t.Errorf("len after refresh = %d", c.len())
	}
}
