package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"because"
	"because/internal/obs"
)

// InferRequest is the POST /v1/infer body. Unknown fields are ignored
// (additive schema evolution); schema_version, when present, must match
// the server's because.SchemaVersion.
type InferRequest struct {
	SchemaVersion int            `json:"schema_version,omitempty"`
	Observations  []Observation  `json:"observations"`
	Options       RequestOptions `json:"options"`
}

// Observation is one labeled path measurement on the wire — the same
// shape becausectl reads.
type Observation struct {
	Path     []because.ASN `json:"path"`
	Positive bool          `json:"positive"`
	Weight   float64       `json:"weight,omitempty"`
}

// RequestOptions is the wire form of because.Options. Every field is
// optional; zero values select the paper defaults. Worker counts are
// deliberately absent: results are bit-identical at any worker count, so
// parallelism is a server deployment knob, not a query parameter (and it
// must not fragment the result cache).
type RequestOptions struct {
	Seed              uint64  `json:"seed,omitempty"`
	Prior             string  `json:"prior,omitempty"` // "", "sparse", "uniform", "centered"
	MHSweeps          int     `json:"mh_sweeps,omitempty"`
	MHBurnIn          int     `json:"mh_burn_in,omitempty"`
	DisableMH         bool    `json:"disable_mh,omitempty"`
	HMCIterations     int     `json:"hmc_iterations,omitempty"`
	HMCBurnIn         int     `json:"hmc_burn_in,omitempty"`
	DisableHMC        bool    `json:"disable_hmc,omitempty"`
	Chains            int     `json:"chains,omitempty"`
	HDPIMass          float64 `json:"hdpi_mass,omitempty"`
	PinpointThreshold float64 `json:"pinpoint_threshold,omitempty"`
	MissRate          float64 `json:"miss_rate,omitempty"`
	Model             string  `json:"model,omitempty"` // "", "rfd", "churn"
	ChurnRate         float64 `json:"churn_rate,omitempty"`
}

// ToOptions converts the wire request into API inputs: becaused's and
// becausectl's one reading of a request. chainWorkers and the observer
// are the caller's own settings layered on top; an unknown prior name is
// a *because.ValidationError on "prior".
func (r *InferRequest) ToOptions(chainWorkers int, o *obs.Observer) ([]because.PathObservation, because.Options, error) {
	opts := because.Options{
		Seed:              r.Options.Seed,
		MHSweeps:          r.Options.MHSweeps,
		MHBurnIn:          r.Options.MHBurnIn,
		DisableMH:         r.Options.DisableMH,
		HMCIterations:     r.Options.HMCIterations,
		HMCBurnIn:         r.Options.HMCBurnIn,
		DisableHMC:        r.Options.DisableHMC,
		Chains:            r.Options.Chains,
		HDPIMass:          r.Options.HDPIMass,
		PinpointThreshold: r.Options.PinpointThreshold,
		MissRate:          r.Options.MissRate,
		Model:             r.Options.Model,
		ChurnRate:         r.Options.ChurnRate,
		Workers:           chainWorkers,
		Obs:               o,
	}
	switch r.Options.Prior {
	case "", "sparse":
		opts.Prior = because.PriorSparse
	case "uniform":
		opts.Prior = because.PriorUniform
	case "centered":
		opts.Prior = because.PriorCentered
	default:
		return nil, opts, &because.ValidationError{Field: "prior", Reason: fmt.Sprintf("unknown prior %q (want sparse, uniform or centered)", r.Options.Prior)}
	}
	observations := make([]because.PathObservation, len(r.Observations))
	for i, ob := range r.Observations {
		observations[i] = because.PathObservation{Path: ob.Path, ShowsProperty: ob.Positive, Weight: ob.Weight}
	}
	return observations, opts, nil
}

// JobStatus is the GET /v1/jobs/{id} envelope: lifecycle state, event
// accounting and the request-scoped trace. The full result document rides
// along once the job is done. The trace is deterministic per request —
// same span tree and IDs at any worker count; only timings vary.
type JobStatus struct {
	SchemaVersion int              `json:"schema_version"`
	JobID         string           `json:"job_id"`
	State         string           `json:"state"`
	Cached        bool             `json:"cached,omitempty"`
	Error         string           `json:"error,omitempty"`
	Events        int              `json:"events"`
	DroppedEvents int              `json:"dropped_events,omitempty"`
	Trace         *obs.TraceExport `json:"trace,omitempty"`
	Result        json.RawMessage  `json:"result,omitempty"`
}

// JobAccepted is the 202 envelope for POST /v1/infer?async=1 and the
// opening "job" SSE frame of the inline stream mode.
type JobAccepted struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id"`
	State         string `json:"state"`
}

func jobAcceptedEnvelope(j *job) JobAccepted {
	return JobAccepted{SchemaVersion: because.SchemaVersion, JobID: j.id, State: string(j.stateNow())}
}

// streamResultEnvelope is the terminal "result" SSE frame of the inline
// stream mode — the same shape writeResult sends on the synchronous path.
func streamResultEnvelope(st JobStatus) any {
	return struct {
		SchemaVersion int             `json:"schema_version"`
		Cached        bool            `json:"cached"`
		JobID         string          `json:"job_id,omitempty"`
		Result        json.RawMessage `json:"result"`
	}{because.SchemaVersion, st.Cached, st.JobID, st.Result}
}

// streamErrorEnvelope is the terminal "error" SSE frame: the jsonError
// envelope plus the HTTP status it would have carried and the job ID.
func streamErrorEnvelope(code int, field string, st JobStatus) any {
	msg := st.Error
	if msg == "" {
		msg = "job " + st.State
	}
	return struct {
		SchemaVersion int    `json:"schema_version"`
		Error         string `json:"error"`
		Field         string `json:"field,omitempty"`
		Code          int    `json:"code"`
		JobID         string `json:"job_id,omitempty"`
	}{because.SchemaVersion, msg, field, code, st.JobID}
}

// requestKey hashes the request — observations in order, the semantic
// options as the engine resolves them (because.Options.Resolved), and
// the wire schema version — into the cache key. Two requests share a
// key exactly when Infer is guaranteed to produce bit-identical results
// for them: observation order is preserved (it fixes the dataset's node
// order and therefore the RNG stream consumption), while worker counts
// and observability hooks are excluded (they never change a single
// output bit).
func requestKey(observations []because.PathObservation, o because.Options) string {
	c, err := o.Resolved()
	if err != nil {
		// Options that fail validation never reach the cache: the handler
		// rejects them before keying. Hash them as given.
		c = o
	}
	h := sha256.New()
	fmt.Fprintf(h, "v%d|seed=%d|prior=%g,%g|mh=%d,%d,%t|hmc=%d,%d,%t|chains=%d|mass=%g|pin=%g|miss=%g|model=%s,%g|",
		because.SchemaVersion, c.Seed,
		c.Prior.Alpha, c.Prior.Beta,
		c.MHSweeps, c.MHBurnIn, c.DisableMH,
		c.HMCIterations, c.HMCBurnIn, c.DisableHMC,
		c.Chains, c.HDPIMass, c.PinpointThreshold, c.MissRate,
		c.Model, c.ChurnRate)
	for _, ob := range observations {
		for _, a := range ob.Path {
			fmt.Fprintf(h, "%d,", a)
		}
		w := ob.Weight
		if w == 0 {
			w = 1 // Weight 0 means "default 1" on the API
		}
		fmt.Fprintf(h, ";%t;%g|", ob.ShowsProperty, w)
	}
	return hex.EncodeToString(h.Sum(nil))
}
