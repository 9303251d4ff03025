package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

	snap := scrape(t, observer.Metrics)
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

// TestRequestKeyGolden pins becaused's cache key bytes, captured while
// serve still restated every default itself: a change to how options are
// resolved must not move a key, or a warm cache would miss (or, worse,
// two results would share one entry).
func TestRequestKeyGolden(t *testing.T) {
	observations := []because.PathObservation{
		{Path: []because.ASN{64500, 64510, 64520}, ShowsProperty: true},
		{Path: []because.ASN{64500, 64530}, Weight: 2},
	}
	for _, tc := range []struct {
		name string
		opts because.Options
		want string
	}{
		{"zero", because.Options{}, "b0d83656892bd3fbdb252e8ce6dd72bf89f9d5be65f1838ace0b908dfcde4234"},
		{"spelled-out defaults", because.Options{
			Prior: because.PriorSparse, MHSweeps: 1500, MHBurnIn: 375,
			HMCIterations: 800, HMCBurnIn: 200, Chains: 1,
			HDPIMass: 0.95, PinpointThreshold: 0.8, Model: because.ModelRFD,
		}, "b0d83656892bd3fbdb252e8ce6dd72bf89f9d5be65f1838ace0b908dfcde4234"},
		{"pinpoint disabled", because.Options{Seed: 3, PinpointThreshold: -1}, "616a88776a9d84fa3cbb0fe56cdb531064f6ded617b50c3907c8283f3ec36a42"},
		{"churn", because.Options{Seed: 5, Model: because.ModelChurn, ChurnRate: 0.05, MissRate: 0.1}, "4492cbcc9e364de83b3851c952830202f926644bf4fa3a1d7c9a53292a28bc02"},
		{"uniform prior", because.Options{Seed: 7, Prior: because.PriorUniform, MHSweeps: 200, Chains: 3, DisableHMC: true}, "b849f957bca5d959399599b0ae2459351e7a36ffb3052221ebedd630b26316fa"},
	} {
		if got := requestKey(observations, tc.opts); got != tc.want {
			t.Errorf("%s: key = %q, want %q", tc.name, got, tc.want)
		}
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

// TestValidationStatuses: every invalid request is refused before a job
// starts, with the same status and field in sync and ?stream=1 mode, so
// the inference never runs.
func TestValidationStatuses(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Infer: countingInfer(&calls)})
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
		{"hdpi mass 1", `{"observations":[{"path":[1,2]}],"options":{"hdpi_mass":1}}`, http.StatusUnprocessableEntity, "hdpi_mass"},
		{"pinpoint threshold above 1", `{"observations":[{"path":[1,2]}],"options":{"pinpoint_threshold":1.5}}`, http.StatusUnprocessableEntity, "pinpoint_threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range []string{"/v1/infer", "/v1/infer?stream=1"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(tc.body)))
				checkErrorEnvelope(t, target, rec, tc.code, tc.field)
			}
		})
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("inference ran %d times for invalid requests, want 0", n)
	}
}

// checkErrorEnvelope checks the status of a request refused at target and
// its versioned error envelope naming field.
func checkErrorEnvelope(t *testing.T, target string, rec *httptest.ResponseRecorder, code int, field string) {
	t.Helper()
	if rec.Code != code {
		t.Fatalf("%s: status = %d, want %d: %s", target, rec.Code, code, rec.Body)
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
		t.Errorf("%s: error envelope = %+v", target, env)
	}
	if env.Field != field {
		t.Errorf("%s: field = %q, want %q", target, env.Field, field)
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
	snap := scrape(t, observer.Metrics)
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
	if c.ll.Len() != 2 {
		t.Errorf("len = %d, want 2", c.ll.Len())
	}
	// Refreshing an existing key replaces the payload without growing.
	c.put("a", []byte("A2"))
	if v, _ := c.get("a"); string(v) != "A2" {
		t.Errorf("refreshed payload = %q", v)
	}
	if c.ll.Len() != 2 {
		t.Errorf("len after refresh = %d", c.ll.Len())
	}
}

// scrape parses the registry's Prometheus exposition into a series →
// value map: counters and gauges by series, histograms by their
// name_sum / name_count series (bucket lines are skipped).
func scrape(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i > 0 && !strings.HasPrefix(line, "#") && !strings.Contains(line[:i], "_bucket{") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			out[line[:i]] = v
		}
	}
	return out
}
