package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"because"
	"because/internal/obs"
)

// progressInfer emits n progress events through opts.OnProgress, then —
// when gate is non-nil — blocks until gate closes (or ctx cancels) before
// succeeding. It lets tests attach to a job that has events buffered but
// has not terminated yet.
func progressInfer(n int, gate <-chan struct{}) InferFunc {
	return func(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
		for i := 0; i < n; i++ {
			if opts.OnProgress != nil {
				opts.OnProgress(because.ProgressEvent{Stage: "mh", Done: i + 1, Total: n, Accepted: i, Proposed: i + 1})
			}
		}
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeResult(), nil
	}
}

// stallingInfer signals on started (if non-nil) and then blocks until its
// context is cancelled.
func stallingInfer(started chan<- struct{}) InferFunc {
	return func(ctx context.Context, observations []because.PathObservation, opts because.Options) (*because.Result, error) {
		if started != nil {
			close(started)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

type sseFrame struct {
	event string
	data  string
}

// readSSEFrames parses SSE frames off r as they arrive, sending each on
// the returned channel; the channel closes when the stream ends.
func readSSEFrames(r io.Reader) <-chan sseFrame {
	out := make(chan sseFrame, 64)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(r)
		var f sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if f.event != "" || f.data != "" {
					out <- f
					f = sseFrame{}
				}
			}
		}
	}()
	return out
}

func nextFrame(t *testing.T, frames <-chan sseFrame) sseFrame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("SSE stream ended early")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for SSE frame")
	}
	return sseFrame{}
}

// getJobStatus fetches and decodes GET /v1/jobs/{id}.
func getJobStatus(t *testing.T, h http.Handler, id string) (JobStatus, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	var st JobStatus
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
	}
	return st, rec.Code
}

// TestSyncInferMintsJob: the plain synchronous path now returns a job_id,
// and the job record carries the terminal state, the events, and the
// request-scoped trace rooted at the "job" span.
func TestSyncInferMintsJob(t *testing.T) {
	srv := New(Config{Infer: progressInfer(3, nil)})
	h := srv.Handler()
	rec := postInfer(t, h, smallBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST = %d: %s", rec.Code, rec.Body)
	}
	var envelope struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.JobID == "" {
		t.Fatalf("response carries no job_id: %s", rec.Body)
	}
	st, code := getJobStatus(t, h, envelope.JobID)
	if code != http.StatusOK {
		t.Fatalf("job status = %d", code)
	}
	if st.State != string(jobDone) || st.Events != 3 || len(st.Result) == 0 {
		t.Errorf("status = %+v, want done with 3 events and a result", st)
	}
	if st.Trace == nil || st.Trace.Root == nil || st.Trace.Root.Name != "job" {
		t.Errorf("trace missing or not rooted at job: %+v", st.Trace)
	}
	if st.Trace.TraceID == "" {
		t.Error("trace ID empty")
	}
}

// TestJobTraceDeterministicPerRequest: identical requests produce
// identical trace IDs (the identity is the canonical request hash), and
// different requests do not.
func TestJobTraceDeterministicPerRequest(t *testing.T) {
	srv := New(Config{Infer: progressInfer(0, nil), CacheSize: -1})
	h := srv.Handler()
	id := func(body string) (string, string) {
		rec := postInfer(t, h, body)
		var env struct {
			JobID string `json:"job_id"`
		}
		json.Unmarshal(rec.Body.Bytes(), &env) //nolint:errcheck
		st, _ := getJobStatus(t, h, env.JobID)
		return st.Trace.TraceID, st.Trace.Root.SpanID
	}
	t1, s1 := id(smallBody)
	t2, s2 := id(smallBody)
	if t1 != t2 || s1 != s2 {
		t.Errorf("identical requests got different trace identities: %s/%s vs %s/%s", t1, s1, t2, s2)
	}
	other := strings.Replace(smallBody, `"seed":1`, `"seed":2`, 1)
	t3, _ := id(other)
	if t3 == t1 {
		t.Error("different requests share a trace ID")
	}
}

// TestAsyncJobLifecycle: ?async=1 returns 202 immediately; the job then
// runs to done and the status document carries events and result.
func TestAsyncJobLifecycle(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{Infer: progressInfer(2, gate)})
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer?async=1", strings.NewReader(smallBody)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async POST = %d: %s", rec.Code, rec.Body)
	}
	var acc JobAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || acc.JobID == "" {
		t.Fatalf("bad 202 envelope: %s", rec.Body)
	}
	// Still running (gated): status reports a live state with events.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := getJobStatus(t, h, acc.JobID)
		if st.Events == 2 {
			if st.State != string(jobRunning) {
				t.Errorf("gated job state = %s, want running", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reported its progress events")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for {
		st, _ := getJobStatus(t, h, acc.JobID)
		if st.State == string(jobDone) {
			if len(st.Result) == 0 {
				t.Error("done job carries no result")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobEventsSSEOrderingAndReplay: the events stream replays buffered
// events from the cursor and follows live, in seq order without gaps,
// closing with a "done" frame once the job terminates.
func TestJobEventsSSEOrderingAndReplay(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{Infer: progressInfer(5, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/infer?async=1", "application/json", strings.NewReader(smallBody))
	if err != nil {
		t.Fatal(err)
	}
	var acc JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	es, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	frames := readSSEFrames(es.Body)
	for i := 0; i < 5; i++ {
		f := nextFrame(t, frames)
		if f.event != "progress" {
			t.Fatalf("frame %d event = %q, want progress", i, f.event)
		}
		var ev jobEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != i {
			t.Fatalf("frame %d seq = %d: ordering/gap violation", i, ev.Seq)
		}
	}
	close(gate) // let the job finish; the stream must end with "done"
	f := nextFrame(t, frames)
	if f.event != "done" {
		t.Fatalf("terminal frame = %q, want done", f.event)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(f.data), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != string(jobDone) || st.Events != 5 {
		t.Errorf("done frame status = %+v", st)
	}

	// Replay from a cursor skips what was already seen.
	es2, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "/events?cursor=3")
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Body.Close()
	var seqs []int
	for f := range readSSEFrames(es2.Body) {
		if f.event != "progress" {
			continue
		}
		var ev jobEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Errorf("cursor=3 replayed %v, want [3 4]", seqs)
	}
}

// TestStreamInline: POST /v1/infer?stream=1 delivers progress frames and
// a terminal result frame on the request itself.
func TestStreamInline(t *testing.T) {
	srv := New(Config{Infer: progressInfer(4, nil)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/infer?stream=1", "application/json", strings.NewReader(smallBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream content-type = %q", resp.Header.Get("Content-Type"))
	}
	frames := readSSEFrames(resp.Body)
	f := nextFrame(t, frames)
	if f.event != "job" {
		t.Fatalf("first frame = %q, want job", f.event)
	}
	seen := 0
	for {
		f = nextFrame(t, frames)
		if f.event == "progress" {
			seen++
			continue
		}
		break
	}
	if seen != 4 {
		t.Errorf("streamed %d progress frames, want 4", seen)
	}
	if f.event != "result" {
		t.Fatalf("terminal frame = %q, want result", f.event)
	}
	var env struct {
		JobID  string          `json:"job_id"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(f.data), &env); err != nil || env.JobID == "" || len(env.Result) == 0 {
		t.Fatalf("bad result frame: %s", f.data)
	}
}

// TestStreamValidationFailureMatchesSync: a request whose validation only
// fails inside the inference (a path repeating an AS) answers 422 with the
// offending field in sync mode, and the ?stream=1 error frame carries the
// same status and field instead of a 500. Both requests are counted as
// 422 in the request metric.
func TestStreamValidationFailureMatchesSync(t *testing.T) {
	const body = `{"observations":[{"path":[1,1],"positive":true}]}`
	const field = "observations[0].path"
	observer := obs.New(nil, obs.NewRegistry())
	ts := httptest.NewServer(New(Config{Obs: observer}).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sync struct{ Field string }
	err = json.NewDecoder(resp.Body).Decode(&sync)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusUnprocessableEntity || sync.Field != field {
		t.Fatalf("sync = %d, field %q (%v); want 422, %q", resp.StatusCode, sync.Field, err, field)
	}

	resp, err = http.Post(ts.URL+"/v1/infer?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSEFrames(resp.Body)
	f := nextFrame(t, frames)
	for f.event == "job" || f.event == "progress" {
		f = nextFrame(t, frames)
	}
	var env struct {
		Code  int
		Field string
	}
	if err := json.Unmarshal([]byte(f.data), &env); err != nil || f.event != "error" || env.Code != http.StatusUnprocessableEntity || env.Field != field {
		t.Fatalf("stream terminal frame %q = %s; want error with code 422 and field %q", f.event, f.data, field)
	}
	// The handler counts the request after its last write, so wait for it.
	const counted = obs.MetricServeRequests + `{code="422",endpoint="infer"} 2`
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var buf strings.Builder
		observer.Metrics.WritePrometheus(&buf) //nolint:errcheck
		if strings.Contains(buf.String(), counted) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want %s; metrics:\n%s", counted, buf.String())
		}
	}
}

// TestStreamDisconnectCancelsJob: dropping the ?stream=1 connection
// cancels the running job through its context, the job lands in state
// cancelled, and the request is counted under the 499 path.
func TestStreamDisconnectCancelsJob(t *testing.T) {
	started := make(chan struct{})
	observer := obs.New(nil, obs.NewRegistry())
	srv := New(Config{Obs: observer, Infer: stallingInfer(started)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/infer?stream=1", strings.NewReader(smallBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSEFrames(resp.Body)
	f := nextFrame(t, frames)
	var acc JobAccepted
	if err := json.Unmarshal([]byte(f.data), &acc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("inference never started")
	}
	cancel() // client disconnect
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if j := srv.jobs.get(acc.JobID); j != nil && j.stateNow() == jobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached cancelled after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		var buf strings.Builder
		observer.Metrics.WritePrometheus(&buf) //nolint:errcheck
		if strings.Contains(buf.String(), `code="499"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("499 never recorded; metrics:\n%s", buf.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeleteCancelsJob: DELETE /v1/jobs/{id} cancels a detached job.
func TestDeleteCancelsJob(t *testing.T) {
	started := make(chan struct{})
	srv := New(Config{Infer: stallingInfer(started)})
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer?async=1", strings.NewReader(smallBody)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async POST = %d", rec.Code)
	}
	var acc JobAccepted
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("inference never started")
	}
	del := httptest.NewRecorder()
	h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+acc.JobID, nil))
	if del.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", del.Code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := getJobStatus(t, h, acc.JobID)
		if st.State == string(jobCancelled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached cancelled after DELETE")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheHitMintsTerminalJob: repeat queries are answered from cache
// but still get a job record, born done+cached, in every request mode.
func TestCacheHitMintsTerminalJob(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Infer: countingInfer(&calls)})
	h := srv.Handler()
	postInfer(t, h, smallBody) // prime

	rec := postInfer(t, h, smallBody)
	var env struct {
		Cached bool   `json:"cached"`
		JobID  string `json:"job_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !env.Cached || env.JobID == "" {
		t.Fatalf("cache-hit envelope: %s", rec.Body)
	}
	st, _ := getJobStatus(t, h, env.JobID)
	if st.State != string(jobDone) || !st.Cached {
		t.Errorf("cache-hit job status = %+v, want done+cached", st)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer?async=1", strings.NewReader(smallBody)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cached async = %d", rec.Code)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("inference ran %d times, want 1", got)
	}
}

// TestJobAPIErrors: unknown IDs 404, bad cursors 400, async+stream 400.
func TestJobAPIErrors(t *testing.T) {
	srv := New(Config{Infer: countingInfer(new(atomic.Int64))})
	h := srv.Handler()
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/jobs/job-999", http.StatusNotFound},
		{http.MethodDelete, "/v1/jobs/job-999", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/job-999/events", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}
	rec := postInfer(t, h, smallBody)
	var env struct {
		JobID string `json:"job_id"`
	}
	json.Unmarshal(rec.Body.Bytes(), &env) //nolint:errcheck
	bad := httptest.NewRecorder()
	h.ServeHTTP(bad, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+env.JobID+"/events?cursor=x", nil))
	if bad.Code != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", bad.Code)
	}
	both := httptest.NewRecorder()
	h.ServeHTTP(both, httptest.NewRequest(http.MethodPost, "/v1/infer?async=1&stream=1", strings.NewReader(smallBody)))
	if both.Code != http.StatusBadRequest {
		t.Errorf("async+stream = %d, want 400", both.Code)
	}
}

// TestSSEStreamsDoNotLeakGoroutines: after streamed requests and event
// watchers complete (or disconnect), the goroutine count settles back to
// its baseline.
func TestSSEStreamsDoNotLeakGoroutines(t *testing.T) {
	srv := New(Config{Infer: progressInfer(3, nil)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	runtime.GC()
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		body := strings.Replace(smallBody, `"seed":1`, fmt.Sprintf(`"seed":%d`, 100+i), 1)
		resp, err := http.Post(ts.URL+"/v1/infer?stream=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	// One watcher that disconnects mid-stream on a job that never ends.
	started := make(chan struct{})
	stall := New(Config{Infer: stallingInfer(started)})
	ts2 := httptest.NewServer(stall.Handler())
	rec := httptest.NewRecorder()
	stall.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer?async=1", strings.NewReader(smallBody)))
	var acc JobAccepted
	json.Unmarshal(rec.Body.Bytes(), &acc) //nolint:errcheck
	ctx, cancelWatch := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts2.URL+"/v1/jobs/"+acc.JobID+"/events", nil)
	watch, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancelWatch()
	watch.Body.Close()
	if j := stall.jobs.get(acc.JobID); j != nil {
		j.cancel() // stop the stalled job itself
	}
	ts2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: baseline %d, now %d — SSE path leaks", base, runtime.NumGoroutine())
}
