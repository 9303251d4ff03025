// Package serve implements becaused's long-running HTTP inference
// service: POST an observation set as JSON, get back a versioned Result
// document. Three properties make it a service rather than a CGI wrapper
// around because.Infer:
//
//   - Bounded job queue with backpressure. At most Config.Jobs inferences
//     sample concurrently; up to Config.QueueDepth more may wait. Beyond
//     that, requests are rejected immediately with 429 and a Retry-After
//     header instead of piling goroutines onto a saturated machine.
//   - Deterministic result cache. Inference is bit-identical for identical
//     (observations, options, seed) — the reproducibility harness pins
//     that down — so results are cached under a hash of the canonicalised
//     request and repeated queries are O(1). The X-Cache response header
//     and the because_serve_cache_* counters expose hits and misses.
//   - Graceful shutdown. Shutdown stops admitting new jobs (healthz flips
//     to 503 for load-balancers) and drains requests already in flight,
//     so a SIGTERM never discards completed sampling work.
//
// Cancellation rides the request context: a client that disconnects stops
// its queued job before it starts, or its running chains within one sweep.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"because"
	"because/internal/obs"
	"because/internal/par"
)

// InferFunc is the inference entry point the server drives; production use
// is because.InferContext, tests inject fakes.
type InferFunc func(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error)

// Config configures the service. The zero value is usable: GOMAXPROCS
// concurrent jobs, twice that many queue slots, a 128-entry cache,
// sequential chains within each job, and no observability.
type Config struct {
	// Jobs bounds how many inference jobs sample concurrently
	// (0 selects GOMAXPROCS).
	Jobs int
	// QueueDepth is how many admitted jobs may wait for a worker beyond
	// the running ones (0 selects 2×Jobs; negative means no waiting room —
	// reject whenever every worker is busy).
	QueueDepth int
	// CacheSize is the result-cache capacity in entries (0 selects 128;
	// negative disables caching).
	CacheSize int
	// ChainWorkers is Options.Workers for each job — how many chains of
	// one inference run concurrently (0 selects 1: job-level parallelism
	// comes from Jobs, and results are identical at any setting anyway).
	ChainWorkers int
	// MaxBodyBytes caps request bodies (0 selects 32 MiB).
	MaxBodyBytes int64
	// Obs receives the serving metrics and logs; nil is a no-op.
	Obs *obs.Observer
	// Infer overrides the inference entry point (nil selects
	// because.InferContext).
	Infer InferFunc
}

// statusClientClosedRequest is the nginx-convention status recorded when
// the client disconnected before its job finished; the client never sees
// it, but the request counter does.
const statusClientClosedRequest = 499

// retryAfterSeconds is the backoff hint sent with 429 responses. A fixed
// hint keeps the handler free of wall-clock reads; queue wait times are
// workload-dependent anyway, and the gauges are the real signal.
const retryAfterSeconds = 1

// Server is the inference service. Construct with New; serve either via
// Handler (to mount on an existing mux / httptest) or Start + Shutdown.
type Server struct {
	cfg      Config
	o        *obs.Observer
	infer    InferFunc
	cache    *lruCache
	slots    chan struct{} // admission tokens: running + waiting
	run      chan struct{} // running tokens
	maxBody  int64
	draining atomic.Bool

	// baseCtx parents detached (?async=1) jobs: they outlive their
	// originating request, so they hang off the server's own root context
	// instead of the request's: only DELETE /v1/jobs/{id} cancels one,
	// and Shutdown waits for them. jobsWG tracks their goroutines for
	// Shutdown; jobs is the registry behind GET /v1/jobs/{id}.
	baseCtx context.Context
	jobs    *jobRegistry
	jobsWG  sync.WaitGroup

	httpSrv *http.Server
	lis     net.Listener

	inflight   *obs.Gauge
	queued     *obs.Gauge
	hits       *obs.Counter
	misses     *obs.Counter
	jobSeconds *obs.Histogram
	sseEvents  *obs.Counter
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	jobs := par.Workers(cfg.Jobs)
	queue := cfg.QueueDepth
	if queue == 0 {
		queue = 2 * jobs
	}
	if queue < 0 {
		queue = 0
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = 128
	}
	var cache *lruCache
	if cacheSize > 0 {
		cache = newLRUCache(cacheSize)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = 32 << 20
	}
	if cfg.ChainWorkers < 1 {
		cfg.ChainWorkers = 1
	}
	infer := cfg.Infer
	if infer == nil {
		infer = because.InferContext
	}
	o := cfg.Obs
	return &Server{
		cfg:     cfg,
		o:       o,
		infer:   infer,
		cache:   cache,
		slots:   make(chan struct{}, jobs+queue),
		run:     make(chan struct{}, jobs),
		maxBody: maxBody,
		//lint:allow ctxflow detached jobs outlive every request and are drained by Shutdown, so only a root can parent them
		baseCtx: context.Background(),
		jobs:    newJobRegistry(),

		inflight:   o.Gauge(obs.MetricServeInFlight),
		queued:     o.Gauge(obs.MetricServeQueueDepth),
		hits:       o.Counter(obs.MetricServeCacheHits),
		misses:     o.Counter(obs.MetricServeCacheMisses),
		jobSeconds: o.Histogram(obs.MetricServeJobSeconds, nil),
		sseEvents:  o.Counter(obs.MetricServeSSEEvents),
	}
}

// Handler returns the service's HTTP handler: POST /v1/infer (plus its
// ?stream=1 inline-SSE and ?async=1 detached modes), the scenario API
// (GET /v1/scenarios, POST /v1/scenarios/{name}/infer with the same
// response modes), the job API under /v1/jobs/{id}, GET /healthz and
// GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.instrument("infer", s.handleInfer))
	mux.HandleFunc("GET /v1/scenarios", s.instrument("scenarios", s.handleScenarioList))
	mux.HandleFunc("POST /v1/scenarios/{name}/infer", s.instrument("scenario_infer", s.handleScenarioInfer))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJobStatus))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs", s.handleJobCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("job_events", s.handleJobEvents))
	mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in the
// background until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	// The accept loop is owned by the http.Server: Shutdown (below) makes
	// Serve return ErrServerClosed and waits for in-flight requests, so
	// the goroutine's join lives behind the stdlib API.
	//lint:allow goleak joined by httpSrv.Shutdown in Server.Shutdown
	go s.httpSrv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	return lis.Addr().String(), nil
}

// Shutdown drains the server: new inference jobs are refused with 503
// (and healthz reports draining, so load-balancers stop routing here),
// while requests already admitted run to completion. It returns when
// every in-flight request has finished or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.o.Log(obs.LevelInfo, "becaused draining", "inflight", s.inflight.Value(), "queued", s.queued.Value())
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	// Detached jobs are not in-flight requests; drain them too.
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// instrument wraps a handler with the per-endpoint request/status counter.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.recorded
		if code == 0 {
			code = sw.status
		}
		if code == 0 {
			code = http.StatusOK
		}
		s.o.Counter(obs.MetricServeRequests, "endpoint", endpoint, "code", strconv.Itoa(code)).Inc()
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
	// recorded overrides status for the request counter. SSE handlers use
	// it when the outcome (client disconnected → 499, a failed job → its
	// 422 or 500) is only known after the 200 header has already gone
	// out.
	recorded int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// record sets the status the request counter reports, regardless of what
// was written to the wire.
func (w *statusWriter) record(code int) { w.recorded = code }

// Flush forwards to the underlying writer so SSE frames leave promptly.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only", "")
		return
	}
	var reg *obs.Registry
	if s.o != nil {
		reg = s.o.Metrics
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg.WritePrometheus(w) //nolint:errcheck // client-side write failures are the client's problem
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST only", "")
		return
	}
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining", "")
		return
	}
	var req InferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "malformed request body: "+err.Error(), "")
		return
	}
	if req.SchemaVersion != 0 && req.SchemaVersion != because.SchemaVersion {
		jsonError(w, http.StatusBadRequest,
			fmt.Sprintf("unsupported schema_version %d (this server speaks %d)", req.SchemaVersion, because.SchemaVersion),
			"schema_version")
		return
	}
	observations, opts, err := req.ToOptions(s.cfg.ChainWorkers, s.o)
	if err == nil && len(observations) == 0 {
		err = because.ErrNoObservations
	}
	if err == nil {
		err = opts.Validate()
	}
	if err != nil {
		// Typed API errors pick the status: semantic validation failures
		// are 422, anything else at this stage is a bad request.
		code, field := errorStatus(err)
		if code == http.StatusInternalServerError {
			code = http.StatusBadRequest
		}
		jsonError(w, code, err.Error(), field)
		return
	}

	s.dispatch(w, r, requestKey(observations, opts), func(j *job) jobWork {
		o := opts
		o.OnProgress = j.appendProgress
		return func(ctx context.Context) (any, error) {
			return s.infer(ctx, observations, o)
		}
	})
}

// jobWork is the unit a job executes once admitted: it runs under the
// job's span-carrying context and returns the document to marshal as the
// job's result. POST /v1/infer closes over an inference call;
// POST /v1/scenarios/{name}/infer closes over a scenario run.
type jobWork func(ctx context.Context) (any, error)

// dispatch is the shared request spine behind every job-minting endpoint:
// result cache, admission with backpressure, and the sync / ?async=1 /
// ?stream=1 response modes. key identifies the request in the cache; prep
// builds the job's work once the job exists (so progress callbacks can
// close over it). Only admitted requests mint jobs — a 429 leaves no
// record, and a cache hit mints a job born terminal.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, key string, prep func(j *job) jobWork) {
	q := r.URL.Query()
	async := q.Get("async") == "1"
	stream := q.Get("stream") == "1"
	if async && stream {
		jsonError(w, http.StatusBadRequest, "async=1 and stream=1 are mutually exclusive", "")
		return
	}

	if s.cache != nil {
		if payload, ok := s.cache.get(key); ok {
			s.hits.Inc()
			// Even a cache hit mints a job, so every accepted request has
			// an inspectable record; it is born terminal.
			j := s.jobs.create(key, func() {})
			j.trace.Root().SetAttr("cache", "hit")
			j.trace.Root().End()
			j.finish(jobDone, payload, true, nil)
			s.countJob(j)
			switch {
			case async:
				writeJSON(w, http.StatusAccepted, jobAcceptedEnvelope(j))
			case stream:
				s.streamInfer(w, r, j)
			default:
				writeResult(w, payload, true, j.id)
			}
			return
		}
		s.misses.Inc()
	}

	// Admission: a free slot means we may wait for a worker; no slot means
	// the queue is full and the honest answer is backpressure, now.
	select {
	case s.slots <- struct{}{}:
	default:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		jsonError(w, http.StatusTooManyRequests, "job queue full, retry later", "")
		return
	}

	if async {
		// Detached: the job outlives this request, parented on the
		// server's root context. DELETE /v1/jobs/{id} cancels it.
		jctx, jcancel := context.WithCancel(s.baseCtx)
		j := s.jobs.create(key, jcancel)
		work := prep(j)
		s.jobsWG.Add(1)
		go func() {
			defer s.jobsWG.Done()
			defer jcancel()
			s.runJob(jctx, j, work) //nolint:errcheck // the terminal state is recorded on the job
		}()
		writeJSON(w, http.StatusAccepted, jobAcceptedEnvelope(j))
		return
	}

	jctx, jcancel := context.WithCancel(r.Context())
	defer jcancel()
	j := s.jobs.create(key, jcancel)
	work := prep(j)

	if stream {
		// Inline SSE: run the job concurrently and stream its events on
		// this response. A disconnect cancels the job via jctx.
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			s.runJob(jctx, j, work) //nolint:errcheck // the terminal state is recorded on the job
		}()
		s.streamInfer(w, r, j)
		<-finished
		return
	}

	payload, err := s.runJob(jctx, j, work)
	if err != nil {
		code, field := errorStatus(err)
		msg := err.Error()
		if code == statusClientClosedRequest {
			msg = "client closed request"
		}
		jsonError(w, code, msg, field)
		return
	}
	writeResult(w, payload, false, j.id)
}

// runJob executes an admitted job: wait for a run token, run the work
// under the job's trace, cache, and record the terminal state. It owns
// the admission slot taken by the caller and releases it on return. The
// returned error mirrors the job's terminal state for synchronous
// handlers; detached callers read the job instead.
func (s *Server) runJob(ctx context.Context, j *job, work jobWork) ([]byte, error) {
	defer func() { <-s.slots }()
	defer s.countJob(j)
	s.queued.Add(1)
	select {
	case s.run <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		j.trace.Root().End()
		j.finish(jobCancelled, nil, false, errors.New("job cancelled before start"))
		return nil, ctx.Err()
	}
	defer func() { <-s.run }()

	j.setRunning()
	s.inflight.Add(1)
	// Observability-only timing: feeds the job-duration histogram, never
	// the inference itself.
	start := time.Now() //lint:allow determinism
	res, err := work(obs.ContextWithSpan(ctx, j.trace.Root()))
	s.jobSeconds.Observe(time.Since(start).Seconds()) //lint:allow determinism — observability-only
	s.inflight.Add(-1)
	j.trace.Root().End()
	if err != nil {
		if ctx.Err() != nil {
			j.finish(jobCancelled, nil, false, errors.New("job cancelled"))
			return nil, ctx.Err()
		}
		j.finish(jobFailed, nil, false, err)
		return nil, err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		err = fmt.Errorf("encoding result: %w", err)
		j.finish(jobFailed, nil, false, err)
		return nil, err
	}
	if s.cache != nil {
		s.cache.put(j.key, payload)
	}
	j.finish(jobDone, payload, false, nil)
	return payload, nil
}

// countJob bumps the terminal-state job counter (idempotence is the
// caller's job: it runs once per job, when the job finishes).
func (s *Server) countJob(j *job) {
	if s.o != nil {
		s.o.Counter(obs.MetricServeJobs, "state", string(j.stateNow())).Inc()
	}
}

// streamInfer serves the ?stream=1 inline mode: a 200 text/event-stream
// response carrying a "job" frame, every "progress" frame in order, and a
// terminal "result" (success) or "error" frame. If the client disconnects
// first, the job is cancelled through its context and the request is
// counted under the existing 499 path.
func (s *Server) streamInfer(w http.ResponseWriter, r *http.Request, j *job) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Job-ID", j.id)
	w.WriteHeader(http.StatusOK)
	writeSSEEvent(w, "job", jobAcceptedEnvelope(j)) //nolint:errcheck // a dead client is detected below
	_, terminal := s.streamEvents(r.Context(), w, j, 0)
	if !terminal {
		// Client went away mid-stream: stop the sampling and record the
		// 499 the synchronous path would have returned.
		j.cancel()
		if sw, ok := w.(*statusWriter); ok {
			sw.record(statusClientClosedRequest)
		}
		return
	}
	// The request counter reports the status the synchronous path would
	// have answered, not the 200 header the stream went out under.
	st := j.status(true)
	code := http.StatusOK
	switch st.State {
	case string(jobDone):
		writeSSEEvent(w, "result", streamResultEnvelope(st)) //nolint:errcheck // stream is ending either way
	case string(jobCancelled):
		code = statusClientClosedRequest
		writeSSEEvent(w, "error", streamErrorEnvelope(code, "", st)) //nolint:errcheck
	default:
		var field string
		code, field = errorStatus(j.failure())
		writeSSEEvent(w, "error", streamErrorEnvelope(code, field, st)) //nolint:errcheck
	}
	if sw, ok := w.(*statusWriter); ok {
		sw.record(code)
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		jsonError(w, http.StatusNotFound, "unknown job", "")
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		jsonError(w, http.StatusNotFound, "unknown job", "")
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleJobEvents streams a job's progress events as SSE, replaying the
// buffer from ?cursor (default 0) and following live until the job ends;
// the stream closes with a "done" frame carrying the resultless status.
// A watcher disconnecting does NOT cancel the job — only the inline
// ?stream=1 owner and DELETE do.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		jsonError(w, http.StatusNotFound, "unknown job", "")
		return
	}
	cursor := 0
	if c := r.URL.Query().Get("cursor"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n < 0 {
			jsonError(w, http.StatusBadRequest, "cursor must be a non-negative integer", "cursor")
			return
		}
		cursor = n
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Job-ID", j.id)
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	_, terminal := s.streamEvents(r.Context(), w, j, cursor)
	if terminal {
		writeSSEEvent(w, "done", j.status(false)) //nolint:errcheck // stream is ending either way
	}
}

// errorStatus maps a failed request's error to its HTTP status and the
// offending request field: 499 for a cancelled or timed-out request, 422
// and the *ValidationError's field for an invalid one, else 500. The sync
// response and the stream's error frame both answer with it.
func errorStatus(err error) (int, string) {
	var ve *because.ValidationError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest, ""
	case errors.As(err, &ve):
		return http.StatusUnprocessableEntity, ve.Field
	case errors.Is(err, because.ErrInvalidOptions) || errors.Is(err, because.ErrNoObservations):
		return http.StatusUnprocessableEntity, ""
	}
	return http.StatusInternalServerError, ""
}

// writeResult sends the versioned success envelope. result is the
// marshalled because.Result document (itself schema-versioned); jobID
// links the response to its job record (additive schema growth).
func writeResult(w http.ResponseWriter, result []byte, cached bool, jobID string) {
	state := "miss"
	if cached {
		state = "hit"
	}
	w.Header().Set("X-Cache", state)
	writeJSON(w, http.StatusOK, struct {
		SchemaVersion int             `json:"schema_version"`
		Cached        bool            `json:"cached"`
		JobID         string          `json:"job_id,omitempty"`
		Result        json.RawMessage `json:"result"`
	}{because.SchemaVersion, cached, jobID, result})
}

// jsonError sends the versioned error envelope.
func jsonError(w http.ResponseWriter, code int, msg, field string) {
	writeJSON(w, code, struct {
		SchemaVersion int    `json:"schema_version"`
		Error         string `json:"error"`
		Field         string `json:"field,omitempty"`
	}{because.SchemaVersion, msg, field})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client-side write failures are the client's problem
}
