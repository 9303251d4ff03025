package serve

// The job registry behind the job API. Every POST /v1/infer mints a job —
// synchronous, streamed (?stream=1) and detached (?async=1) requests
// alike — so any accepted inference can be inspected afterwards via
// GET /v1/jobs/{id} and watched live via GET /v1/jobs/{id}/events.
//
// Lifecycle: queued → running → exactly one of done | failed | cancelled.
// The first terminal state wins; later transitions are ignored.
//
// Event stream ordering guarantee: progress events are buffered on the
// job with consecutive sequence numbers in arrival order (the inference
// layer already serialises progress callbacks), and every stream replays
// the buffer from its cursor before going live — so a consumer sees
// events in seq order, gapless, no matter when it attaches. The buffer is
// bounded at maxJobEvents; beyond that, events are counted as dropped
// (reported in the status document) rather than buffered, which keeps the
// guarantee honest: a stream never silently skips a seq it could have
// delivered.
//
// Job IDs come from a process-local counter — no clock, no randomness —
// because this package is a determinism path.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"because"
	"because/internal/obs"
)

const (
	// maxJobEvents bounds one job's progress buffer. At the default
	// progress cadence this is far beyond any real run; the dropped
	// counter in the status document says when a run outgrew it.
	maxJobEvents = 4096
	// maxJobsRetained bounds the registry. Once exceeded, the oldest
	// terminal jobs are evicted first; jobs still queued or running are
	// never evicted.
	maxJobsRetained = 256
)

// jobState is a job's lifecycle position.
type jobState string

const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

func (st jobState) terminal() bool {
	return st == jobDone || st == jobFailed || st == jobCancelled
}

// jobEvent is one buffered progress notification, sequence-numbered for
// gapless replay. It is also the SSE "progress" frame payload.
type jobEvent struct {
	Seq        int     `json:"seq"`
	Stage      string  `json:"stage"`
	Chain      int     `json:"chain"`
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	Accepted   int     `json:"accepted"`
	Proposed   int     `json:"proposed"`
	Acceptance float64 `json:"acceptance"`
}

// job is one tracked inference request.
type job struct {
	id     string
	key    string // canonical request hash: the trace identity
	trace  *obs.Trace
	cancel context.CancelFunc

	mu      sync.Mutex
	state   jobState        //lint:guard mu
	err     error           //lint:guard mu — why the job failed or was cancelled
	cached  bool            //lint:guard mu
	result  []byte          //lint:guard mu — marshalled because.Result document (state == done)
	events  []jobEvent      //lint:guard mu
	dropped int             //lint:guard mu
	waiters []chan struct{} //lint:guard mu
}

// appendProgress is the Options.OnProgress hook: buffer the event with
// the next sequence number and wake streamers. The inference layer calls
// it serialised; the lock additionally orders it against readers.
func (j *job) appendProgress(ev because.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) >= maxJobEvents {
		j.dropped++
		return
	}
	j.events = append(j.events, jobEvent{
		Seq: len(j.events), Stage: ev.Stage, Chain: ev.Chain,
		Done: ev.Done, Total: ev.Total,
		Accepted: ev.Accepted, Proposed: ev.Proposed,
		Acceptance: ev.AcceptanceRate(),
	})
	j.broadcastLocked()
}

// setRunning marks the queued→running transition.
func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == jobQueued {
		j.state = jobRunning
		j.broadcastLocked()
	}
}

// finish records the job's terminal state; the first one wins.
func (j *job) finish(state jobState, result []byte, cached bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state, j.result, j.cached, j.err = state, result, cached, err
	j.broadcastLocked()
}

// failure returns the error a terminal job recorded, nil when it is done.
func (j *job) failure() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// broadcastLocked wakes every blocked streamer; caller holds j.mu.
func (j *job) broadcastLocked() {
	for _, ch := range j.waiters {
		// The sanctioned broadcast-under-mutex idiom: close never blocks,
		// and waiters must observe the event append atomically with their
		// wake-up or the gapless-replay invariant breaks.
		close(ch) //lint:allow lockcheck close never blocks; wake must be atomic with the buffered append
	}
	j.waiters = nil
}

// stateNow reads the current state.
func (j *job) stateNow() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// eventsSince returns the buffered events after cursor and the current
// state. When there is nothing to deliver yet and the job is still live,
// it instead returns a channel that closes on the next append or state
// change — the caller blocks on it and retries.
func (j *job) eventsSince(cursor int) ([]jobEvent, jobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(j.events) {
		cursor = len(j.events)
	}
	if cursor < len(j.events) || j.state.terminal() {
		return append([]jobEvent(nil), j.events[cursor:]...), j.state, nil
	}
	ch := make(chan struct{})
	j.waiters = append(j.waiters, ch)
	return nil, j.state, ch
}

// status snapshots the job as its wire document. The full result rides
// along only when asked for (the status poll stays cheap; the events
// stream ends with a resultless status).
func (j *job) status(includeResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		SchemaVersion: because.SchemaVersion,
		JobID:         j.id,
		State:         string(j.state),
		Cached:        j.cached,
		Events:        len(j.events),
		DroppedEvents: j.dropped,
		Trace:         j.trace.Export(),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if includeResult && j.state == jobDone {
		st.Result = json.RawMessage(j.result)
	}
	return st
}

// jobRegistry tracks jobs by ID with bounded, terminal-only eviction.
type jobRegistry struct {
	next atomic.Uint64

	mu    sync.Mutex
	jobs  map[string]*job //lint:guard mu
	order []string        //lint:guard mu — insertion order, for eviction
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*job)}
}

// create mints the next job with its deterministic trace (identity = the
// canonical request hash) and registers it.
func (r *jobRegistry) create(key string, cancel context.CancelFunc) *job {
	j := &job{
		id:     fmt.Sprintf("job-%d", r.next.Add(1)),
		key:    key,
		trace:  obs.NewTrace("job", key),
		cancel: cancel,
		state:  jobQueued,
	}
	r.mu.Lock()
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.evictLocked()
	r.mu.Unlock()
	return j
}

// get looks a job up by ID (nil when unknown or evicted).
func (r *jobRegistry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// evictLocked drops the oldest terminal jobs beyond maxJobsRetained;
// caller holds r.mu. Live jobs are skipped, so the registry can briefly
// exceed the bound when more than maxJobsRetained jobs are in flight.
func (r *jobRegistry) evictLocked() {
	excess := len(r.order) - maxJobsRetained
	if excess <= 0 {
		return
	}
	kept := r.order[:0]
	for _, id := range r.order {
		if excess > 0 && r.jobs[id].stateNow().terminal() {
			delete(r.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

// writeSSEEvent writes one Server-Sent Events frame (a named event with a
// JSON data line) and flushes it to the client.
func writeSSEEvent(w http.ResponseWriter, event string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// streamEvents writes the job's progress events from cursor as SSE
// "progress" frames — buffered replay first, then live — until the job
// reaches a terminal state (returns terminal=true) or ctx is cancelled /
// the client write fails (terminal=false). The returned cursor is the
// next unseen sequence number.
func (s *Server) streamEvents(ctx context.Context, w http.ResponseWriter, j *job, cursor int) (int, bool) {
	for {
		evs, st, wait := j.eventsSince(cursor)
		for _, ev := range evs {
			if err := writeSSEEvent(w, "progress", ev); err != nil {
				return cursor, false
			}
			cursor++
			s.sseEvents.Inc()
		}
		if wait == nil {
			if st.terminal() {
				return cursor, true
			}
			continue
		}
		select {
		case <-ctx.Done():
			return cursor, false
		case <-wait:
		}
	}
}
