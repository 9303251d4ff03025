package main

// The serving workloads, infer-paper and serve-mixed: becaused's handler
// (serve.Handler, Jobs 2, default cache and queue, the daemon's metrics
// registry) on an httptest loopback server, driven by closed-loop HTTP
// clients.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"because"
	"because/internal/bgp"
	"because/internal/core"
	"because/internal/obs"
	"because/internal/serve"
)

// Semantic floors on infer-paper results against the planted dampers.
const (
	paperMinPrecision = 0.9
	paperMinRecall    = 0.9
)

type serveWorkload struct {
	name    string
	seed    uint64
	clients int

	paper []*request     // infer-paper: each client's dataset
	mixed []*mixedClient // serve-mixed: each client's request stream

	hc       *http.Client
	ts       *httptest.Server
	daemon   *serve.Server
	jobTimes sync.Map // trace ID → seconds inside because.InferContext (traced)
	rejected atomic.Int64
	before   map[string]float64 // /metrics at the start of a traced phase
}

// setup generates and self-tests the inputs, starts the daemon and warms it
// up from every client.
func (w *serveWorkload) setup(traced bool) error {
	if err := selfTest(w.seed); err != nil {
		return err
	}
	w.paper, w.mixed = nil, nil
	for c := 0; c < w.clients; c++ {
		if w.name == "infer-paper" {
			q, err := paperRequest(w.seed, c)
			if err != nil {
				return err
			}
			w.paper = append(w.paper, q)
		} else {
			w.mixed = append(w.mixed, newMixedClient(w.seed, c))
		}
	}

	w.rejected.Store(0)
	cfg := serve.Config{Jobs: 2, Obs: obs.New(obs.Nop(), obs.NewRegistry())}
	if traced {
		cfg.Infer = w.timedInfer
	}
	w.daemon = serve.New(cfg)
	w.ts = httptest.NewServer(w.daemon.Handler())
	w.hc = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.clients},
		Timeout:   2 * time.Minute,
	}

	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = w.warmUp(c)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	if traced {
		var err error
		w.before, err = w.scrape()
		return err
	}
	return nil
}

// warmUp runs the client's first requests before measuring, the same
// amount of work at every seed: infer-paper sends its dataset once per
// response mode with short sampling; serve-mixed sends one fresh 100-path
// request per response mode and then repeats each, as a cache hit.
func (w *serveWorkload) warmUp(c int) error {
	var bodies [][]byte
	for i := uint64(0); i < 3; i++ {
		if w.name == "infer-paper" {
			body, err := json.Marshal(serve.InferRequest{Observations: w.paper[c].obs, Options: serve.RequestOptions{
				Seed: i, MHSweeps: 100, HMCIterations: 50,
			}})
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
			continue
		}
		q, err := plantedRequest(newRand(w.seed, uint64(300+3*c)+i), 55, 100, because.ModelRFD, i)
		if err != nil {
			return err
		}
		bodies = append(bodies, q.body)
	}
	if w.name == "serve-mixed" {
		bodies = append(bodies, bodies...)
	}
	for i, body := range bodies {
		if _, err := w.send([]string{modeSync, modeStream, modeAsync}[i%3], body); err != nil {
			return err
		}
	}
	return nil
}

// timedInfer is the traced daemon's inference entry point: because.InferContext
// with its wall time recorded under the job's trace ID.
func (w *serveWorkload) timedInfer(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
	start := time.Now()
	res, err := because.InferContext(ctx, observations, opts)
	w.jobTimes.Store(obs.TraceFromContext(ctx).ID(), time.Since(start).Seconds())
	return res, err
}

// finish ends a phase. A traced phase reports the daemon's counters over
// the phase and the core probe; the daemon is then shut down.
func (w *serveWorkload) finish(traced bool) (map[string]float64, error) {
	var out map[string]float64
	var err error
	if traced {
		out, err = w.phaseMetrics()
	}
	w.ts.Close()
	w.hc.CloseIdleConnections()
	if serr := w.daemon.Shutdown(context.Background()); err == nil {
		err = serr
	}
	return out, err
}

func (w *serveWorkload) phaseMetrics() (map[string]float64, error) {
	after, err := w.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - w.before[name] }
	out := map[string]float64{
		"serve.sse_events": delta(obs.MetricServeSSEEvents),
		"serve.rejected":   float64(w.rejected.Load()),
	}
	if n := delta(obs.MetricServeJobSeconds + "_count"); n > 0 {
		out["serve.job_s"] = delta(obs.MetricServeJobSeconds+"_sum") / n
	}
	hits, misses := delta(obs.MetricServeCacheHits), delta(obs.MetricServeCacheMisses)
	if hits+misses > 0 {
		out["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	var probe *request
	if w.name == "infer-paper" {
		probe = w.paper[0]
	} else if probe, err = plantedRequest(newRand(w.seed, 400), 55, 100, because.ModelRFD, 0); err != nil {
		return nil, err
	}
	if err := coreProbe(probe, w.seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// coreProbe runs one inference of q straight through core, with the
// configuration because.InferContext derives from default options, on the
// otherwise idle process: the sampler draws give each sampler's ESS per
// chain-second, and the heap counter the inference's allocation.
func coreProbe(q *request, seed uint64, into map[string]float64) error {
	paths := make([]core.PathObs, len(q.obs))
	for i, o := range q.obs {
		asns := make([]bgp.ASN, len(o.Path))
		for j, a := range o.Path {
			asns[j] = bgp.ASN(a)
		}
		paths[i] = core.PathObs{ASNs: asns, Positive: o.Positive}
	}
	tr := obs.NewTrace("probe", "core")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	var m allocMeter
	m.start(true)
	ds, err := core.NewDataset(paths)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	res, err := core.InferContext(ctx, ds, core.Config{Seed: seed, Workers: 1})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	m.stop(into, "core.alloc_mb", "")
	tr.Root().End()
	into["core.mh.ess_per_s"], into["core.hmc.ess_per_s"] = essPerSecond(res, tr.Export().Root)
	return nil
}

// scrape reads the daemon's /metrics exposition into name → value.
func (w *serveWorkload) scrape() (map[string]float64, error) {
	resp, err := w.hc.Get(w.ts.URL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// op sends the client's next request and checks the answer.
func (w *serveWorkload) op(c, i int, traced bool) sample {
	var q *request
	var body []byte
	var repeat bool
	mode := modeStream
	var err error
	if w.name == "infer-paper" {
		q = w.paper[c]
		body, err = q.withSeed(w.seed<<32 ^ uint64(c)<<24 ^ uint64(i+1))
	} else {
		q, repeat, mode, err = w.mixed[c].next()
		if err == nil {
			body = q.body
		}
	}
	if err != nil {
		return sample{err: err}
	}

	start := time.Now()
	got, err := w.send(mode, body)
	s := sample{lat: time.Since(start).Seconds(), err: err}
	if err != nil {
		return s
	}
	if s.err = checkResult(q, got.result, w.name == "infer-paper"); s.err != nil {
		return s
	}
	// A hit must serve its miss's payload byte for byte.
	if repeat && q.served != nil && !bytes.Equal(got.result, q.served) {
		s.err = fmt.Errorf("cache hit payload differs from the miss that filled it")
		return s
	}
	q.served = got.result
	if traced {
		s.err = w.traceOp(&s, q, got)
	}
	return s
}

// traceOp splits a traced op's latency into serve (client latency outside
// the job's inference), because (the API around the core stages) and core,
// and reads the core stages from the job's trace.
func (w *serveWorkload) traceOp(s *sample, q *request, got *served) error {
	st := got.status
	if st == nil {
		st = new(serve.JobStatus)
		if err := w.getJSON("/v1/jobs/"+got.jobID, st); err != nil {
			return err
		}
	}
	if st.Trace == nil {
		return fmt.Errorf("job %s has no trace", got.jobID)
	}
	s.layers = map[string]float64{"serve.spine_s": s.lat}
	s.self = map[string]float64{"serve": s.lat}
	if got.cached {
		return nil
	}
	v, ok := w.jobTimes.LoadAndDelete(st.Trace.TraceID)
	if !ok {
		return fmt.Errorf("job %s missed the cache but never reached the inference entry point", got.jobID)
	}
	inferS := v.(float64)
	root := chainsInSequence(st.Trace.Root)
	// Under the churn model the sampler stages report as churn.*; the
	// core.* stage metrics stay those of the default RFD model.
	if q.model == because.ModelChurn {
		samplerMetrics(root, "churn", s.layers)
	} else {
		samplerMetrics(root, "core", s.layers)
		s.layers["core.dataset_s"] = spanSeconds(root, "dataset")
	}
	coreS := spanSeconds(root, "dataset") + spanSeconds(root, "sample") + spanSeconds(root, "summarize") + spanSeconds(root, "pinpoint")
	s.layers["because.api_s"] = inferS - coreS
	s.layers["serve.spine_s"] = s.lat - inferS
	s.self = map[string]float64{"serve": s.lat - inferS, "because": inferS - coreS, "core": coreS}
	_, s.problems = selfTimes(root, func(string) string { return "" })
	return nil
}

// served is one answered request.
type served struct {
	jobID  string
	cached bool
	result json.RawMessage
	status *serve.JobStatus // the async mode's final job status
}

// send issues one request in the given response mode and returns its
// result. A 429 counts as rejected; every failure is an error.
func (w *serveWorkload) send(mode string, body []byte) (*served, error) {
	switch mode {
	case modeSync:
		resp, err := w.post("/v1/infer", body, http.StatusOK)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var env struct {
			Cached bool            `json:"cached"`
			JobID  string          `json:"job_id"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return nil, fmt.Errorf("decoding result: %w", err)
		}
		return &served{jobID: env.JobID, cached: env.Cached, result: env.Result}, nil

	case modeStream:
		resp, err := w.post("/v1/infer?stream=1", body, http.StatusOK)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out := &served{}
		err = readEvents(resp.Body, func(event string, data []byte) error {
			switch event {
			case "job":
				var acc serve.JobAccepted
				if err := json.Unmarshal(data, &acc); err != nil {
					return err
				}
				out.jobID = acc.JobID
			case "result":
				var env struct {
					Cached bool            `json:"cached"`
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal(data, &env); err != nil {
					return err
				}
				out.cached, out.result = env.Cached, env.Result
			case "error":
				return fmt.Errorf("stream error frame: %s", data)
			}
			return nil
		})
		if err == nil && out.result == nil {
			err = fmt.Errorf("stream ended without a result frame")
		}
		return out, err

	default: // modeAsync
		resp, err := w.post("/v1/infer?async=1", body, http.StatusAccepted)
		if err != nil {
			return nil, err
		}
		var acc serve.JobAccepted
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding job: %w", err)
		}
		events, err := w.hc.Get(w.ts.URL + "/v1/jobs/" + acc.JobID + "/events")
		if err != nil {
			return nil, err
		}
		defer events.Body.Close()
		var done *serve.JobStatus
		progress := 0
		err = readEvents(events.Body, func(event string, data []byte) error {
			switch event {
			case "progress":
				progress++
			case "done":
				done = new(serve.JobStatus)
				return json.Unmarshal(data, done)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if done == nil || done.State != "done" || done.Events != progress {
			return nil, fmt.Errorf("job %s: events stream ended badly (done frame %+v after %d progress frames)", acc.JobID, done, progress)
		}
		st := new(serve.JobStatus)
		if err := w.getJSON("/v1/jobs/"+acc.JobID, st); err != nil {
			return nil, err
		}
		return &served{jobID: acc.JobID, cached: st.Cached, result: st.Result, status: st}, nil
	}
}

// post sends body and requires the wanted status.
func (w *serveWorkload) post(path string, body []byte, want int) (*http.Response, error) {
	resp, err := w.hc.Post(w.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body) // best effort: only used in the error text
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			w.rejected.Add(1)
		}
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (w *serveWorkload) getJSON(path string, v any) error {
	resp, err := w.hc.Get(w.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// readEvents parses a server-sent-event stream, calling fn per frame. Every
// "progress" frame's seq must continue the stream's gapless 0, 1, 2, ...
func readEvents(r io.Reader, fn func(event string, data []byte) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var event string
	var data []byte
	nextSeq := 0
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("reading event stream: %w", err)
		}
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return nil
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		case len(line) == 0 && event != "":
			if event == "progress" {
				var ev struct {
					Seq int `json:"seq"`
				}
				if err := json.Unmarshal(data, &ev); err != nil {
					return fmt.Errorf("progress frame: %w", err)
				}
				if ev.Seq != nextSeq {
					return fmt.Errorf("progress seq %d where %d was due", ev.Seq, nextSeq)
				}
				nextSeq++
			}
			if err := fn(event, data); err != nil {
				return err
			}
			event = ""
		}
	}
}

// wireResult is the part of a served because.Result document the checks
// read.
type wireResult struct {
	SchemaVersion int    `json:"schema_version"`
	Model         string `json:"model"`
	Reports       []struct {
		AS            because.ASN `json:"as"`
		Mean          float64     `json:"mean"`
		CredibleLow   float64     `json:"credible_low"`
		CredibleHigh  float64     `json:"credible_high"`
		Category      int         `json:"category"`
		PositivePaths int         `json:"positive_paths"`
		NegativePaths int         `json:"negative_paths"`
	} `json:"reports"`
}

// checkResult checks a served result against its request: schema and
// model, one report per AS of the request in ascending order with that AS's
// exact positive and negative path counts, probabilities in [0, 1]; with
// floors, the flagged ASes against the planted dampers too.
func checkResult(q *request, raw json.RawMessage, floors bool) error {
	var res wireResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("decoding result document: %w", err)
	}
	if res.SchemaVersion != because.SchemaVersion || res.Model != q.model {
		return fmt.Errorf("result has schema %d model %q, want %d %q", res.SchemaVersion, res.Model, because.SchemaVersion, q.model)
	}
	counts := q.pathCounts()
	if len(res.Reports) != len(counts) {
		return fmt.Errorf("result reports %d ASes, request has %d", len(res.Reports), len(counts))
	}
	flagged, truePos := 0, 0
	for i, r := range res.Reports {
		if i > 0 && r.AS <= res.Reports[i-1].AS {
			return fmt.Errorf("reports not in ascending AS order at AS %d", r.AS)
		}
		if c, ok := counts[r.AS]; !ok || c != [2]int{r.PositivePaths, r.NegativePaths} {
			return fmt.Errorf("AS %d: reported %d/%d positive/negative paths, request has %v", r.AS, r.PositivePaths, r.NegativePaths, c)
		}
		if r.Mean < 0 || r.Mean > 1 || r.CredibleLow < 0 || r.CredibleLow > r.CredibleHigh || r.CredibleHigh > 1 || r.Category < 1 || r.Category > 5 {
			return fmt.Errorf("AS %d: report out of range: %+v", r.AS, r)
		}
		if r.Category >= 4 {
			flagged++
			if q.dampers[r.AS] {
				truePos++
			}
		}
	}
	if floors {
		precision, recall := ratio(truePos, flagged), ratio(truePos, len(q.dampers))
		if precision < paperMinPrecision || recall < paperMinRecall {
			return fmt.Errorf("precision %.2f / recall %.2f below floors %.2f / %.2f", precision, recall, paperMinPrecision, paperMinRecall)
		}
	}
	return nil
}
