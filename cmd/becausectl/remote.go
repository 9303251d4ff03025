package main

// Remote mode: run the inference on a becaused instead of in-process.
// The query goes out as POST /v1/infer?stream=1 and the daemon's live SSE
// frames drive the same progress rendering a local run gets; the terminal
// "result" frame is decoded back into a because.Result so every output
// flag (-json, -flagged-only, the table) behaves identically. -trace-out
// fetches the server-side trace from GET /v1/jobs/{id} once the job ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"

	"because"
	"because/internal/serve"
)

// remoteReport mirrors because.ASReport's wire form for decoding.
type remoteReport struct {
	AS            because.ASN      `json:"as"`
	Mean          float64          `json:"mean"`
	CredibleLow   float64          `json:"credible_low"`
	CredibleHigh  float64          `json:"credible_high"`
	Certainty     float64          `json:"certainty"`
	Category      because.Category `json:"category"`
	Pinpointed    bool             `json:"pinpointed"`
	PositivePaths int              `json:"positive_paths"`
	NegativePaths int              `json:"negative_paths"`
	RHat          *float64         `json:"rhat"`
}

// remoteResult mirrors because.Result's wire form for decoding.
type remoteResult struct {
	Model          string         `json:"model"`
	Reports        []remoteReport `json:"reports"`
	MHAcceptance   float64        `json:"mh_acceptance"`
	HMCAcceptance  float64        `json:"hmc_acceptance"`
	HMCDivergences int            `json:"hmc_divergences"`
}

// runRemote sends the dataset to the daemon, consumes the SSE stream and
// renders the decoded result with the shared renderer.
func runRemote(o options, records []serve.Observation, stdout io.Writer) error {
	body, err := json.Marshal(serve.InferRequest{
		Observations: records,
		Options: serve.RequestOptions{
			Seed: o.seed, Prior: o.prior,
			MHSweeps: o.mhSweeps, HMCIterations: o.hmcIters,
			Chains: o.chains, MissRate: o.missRate,
			Model: o.model, ChurnRate: o.churnRate,
		},
	})
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(o.remote, "/")
	resp, err := http.Post(base+"/v1/infer?stream=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("reaching %s: %w", o.remote, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}

	jobID, raw, err := consumeStream(o, resp.Body)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := fetchTrace(base, jobID, o.traceOut); err != nil {
			return err
		}
	}
	res, err := decodeRemoteResult(raw)
	if err != nil {
		return err
	}
	return render(o, res, len(records), stdout)
}

// consumeStream reads the SSE frames of an inline-stream inference: the
// opening "job" frame (job ID), "progress" frames (rendered on stderr
// when -progress), and the terminal "result" or "error" frame.
func consumeStream(o options, r io.Reader) (jobID string, result json.RawMessage, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // result frames carry the full document
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "" && data == "" {
				continue
			}
			switch event {
			case "job":
				var acc struct {
					JobID string `json:"job_id"`
				}
				if err := json.Unmarshal([]byte(data), &acc); err == nil {
					jobID = acc.JobID
					if o.progress {
						fmt.Fprintf(os.Stderr, "becausectl: remote job %s\n", jobID)
					}
				}
			case "progress":
				if o.progress {
					// The frame's keys (stage, chain, done, total, accepted,
					// proposed) match the event's fields case-insensitively.
					var ev because.ProgressEvent
					if err := json.Unmarshal([]byte(data), &ev); err == nil {
						printProgress(ev)
					}
				}
			case "result":
				var env struct {
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal([]byte(data), &env); err != nil {
					return jobID, nil, fmt.Errorf("decoding result frame: %w", err)
				}
				return jobID, env.Result, nil
			case "error":
				var env struct {
					Error string `json:"error"`
					Code  int    `json:"code"`
				}
				if err := json.Unmarshal([]byte(data), &env); err != nil {
					return jobID, nil, fmt.Errorf("decoding error frame: %s", data)
				}
				return jobID, nil, fmt.Errorf("remote inference failed (%d): %s", env.Code, env.Error)
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return jobID, nil, fmt.Errorf("reading event stream: %w", err)
	}
	return jobID, nil, fmt.Errorf("event stream ended without a result")
}

// decodeRemoteResult rebuilds a because.Result from its wire document so
// the local renderer (table, -json, -flagged-only) applies unchanged.
func decodeRemoteResult(raw json.RawMessage) (*because.Result, error) {
	var w remoteResult
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("decoding remote result: %w", err)
	}
	res := &because.Result{
		Model:          w.Model,
		Reports:        make([]because.ASReport, len(w.Reports)),
		MHAcceptance:   w.MHAcceptance,
		HMCAcceptance:  w.HMCAcceptance,
		HMCDivergences: w.HMCDivergences,
	}
	for i, rep := range w.Reports {
		rhat := math.NaN() // omitted on the wire when not computed
		if rep.RHat != nil {
			rhat = *rep.RHat
		}
		res.Reports[i] = because.ASReport{
			AS: rep.AS, Model: w.Model, Mean: rep.Mean,
			CredibleLow: rep.CredibleLow, CredibleHigh: rep.CredibleHigh,
			Certainty: rep.Certainty, Category: rep.Category, Pinpointed: rep.Pinpointed,
			PositivePaths: rep.PositivePaths, NegativePaths: rep.NegativePaths,
			RHat: rhat,
		}
	}
	return res, nil
}

// fetchTrace pulls the job's status document and writes its trace member
// to path — the same deterministic span tree a local -trace-out captures,
// rooted at the server's "job" span.
func fetchTrace(base, jobID, path string) error {
	if jobID == "" {
		return fmt.Errorf("trace-out: the stream carried no job ID")
	}
	resp, err := http.Get(base + "/v1/jobs/" + jobID)
	if err != nil {
		return fmt.Errorf("fetching trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp)
	}
	var st struct {
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding job status: %w", err)
	}
	if len(st.Trace) == 0 {
		return fmt.Errorf("trace-out: job %s carries no trace", jobID)
	}
	var doc any
	if err := json.Unmarshal(st.Trace, &doc); err != nil {
		return err
	}
	return writeTrace(path, doc)
}

// remoteError turns a non-200 daemon response into an error, preferring
// the jsonError envelope's message.
func remoteError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && env.Error != "" {
		return fmt.Errorf("remote: %s (HTTP %d)", env.Error, resp.StatusCode)
	}
	return fmt.Errorf("remote: HTTP %d", resp.StatusCode)
}
