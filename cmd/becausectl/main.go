// Command becausectl runs the BeCAUSe inference over a labeled path
// dataset and prints the per-AS diagnostic summary.
//
// The input is JSON — either an array or newline-delimited objects — of
// labeled paths:
//
//	{"path": [64500, 64510, 64520], "positive": true}
//	{"path": [64500, 64530], "positive": false}
//
// Usage:
//
//	becausectl [-in paths.json] [-seed 0] [-prior sparse|uniform|centered]
//	           [-flagged-only] [-mh-sweeps N] [-hmc-iters N]
//	           [-chains N] [-workers N] [-miss-rate P]
//	           [-model rfd|churn] [-churn-rate P]
//	           [-metrics-addr :8080] [-log-level info] [-progress]
//	           [-trace-out trace.json] [-remote http://127.0.0.1:8642]
//
// With no -in, the dataset is read from standard input.
//
// -workers runs the chains concurrently on that many goroutines (0 = all
// cores). The output is bit-identical at every worker count; the flag only
// changes the wall-clock.
//
// -model selects the observation model the samplers draw against: "rfd"
// (default) reads the positives as RFD signatures; "churn" reads them as
// binary path-change observations and accepts -churn-rate, the
// background probability that a path churns with no responsible AS on it.
// Both models compose with -miss-rate.
//
// Observability: -metrics-addr serves Prometheus metrics on /metrics (and
// pprof on /debug/pprof/) for the duration of the run; -log-level enables
// structured logs on stderr (debug, info, warn, error; default off);
// -progress renders live sampler progress lines on stderr. -chains 2 or
// more adds a per-AS Gelman-Rubin R-hat column to the table.
//
// -trace-out writes the run's request-scoped trace — the hierarchical
// span tree with deterministic IDs, stage durations and per-chain sampler
// attributes — as a JSON document. The span tree and IDs are identical
// for identical inputs at any -workers value; only the timings vary.
//
// Scenario mode: `becausectl scenario list|render|run` works with the
// declarative scenario corpus (internal/scenario) instead of raw path
// datasets — `list` shows the embedded corpus, `render` prints a
// scenario's canonical resolved configuration (the golden form), and
// `run` executes it end to end and reports the outcome, exiting 1 when
// the document's expectations fail. `render` and `run` accept `-in
// file.json` for documents outside the corpus.
//
// Remote mode: -remote points becausectl at a running becaused and the
// inference executes there instead of in-process. The query is sent as
// POST /v1/infer?stream=1; -progress then renders the daemon's live SSE
// progress frames on stderr exactly like a local run, and -trace-out
// fetches the server-side trace from GET /v1/jobs/{id} after the stream
// ends. Against a local daemon:
//
//	becaused -addr 127.0.0.1:8642 &
//	becausectl -remote http://127.0.0.1:8642 -progress -in paths.json
//
// Local-only sampler knobs (-workers, -metrics-addr) are ignored remotely;
// the daemon's own settings apply.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"because"
	"because/internal/obs"
	"because/internal/serve"
)

// options collects every CLI flag.
type options struct {
	in          string
	seed        uint64
	prior       string
	flaggedOnly bool
	jsonOut     bool
	mhSweeps    int
	hmcIters    int
	chains      int
	workers     int
	missRate    float64
	model       string
	churnRate   float64
	progress    bool
	metricsAddr string
	logLevel    string
	traceOut    string
	remote      string
}

func main() {
	scenarioDispatch()
	var o options
	flag.StringVar(&o.in, "in", "", "input JSON file (default: stdin)")
	flag.Uint64Var(&o.seed, "seed", 0, "inference seed")
	flag.StringVar(&o.prior, "prior", "sparse", "prior: sparse, uniform or centered")
	flag.BoolVar(&o.flaggedOnly, "flagged-only", false, "print only category 4/5 ASes")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the reports as JSON instead of a table")
	flag.IntVar(&o.mhSweeps, "mh-sweeps", 0, "Metropolis-Hastings sweeps (0 = default)")
	flag.IntVar(&o.hmcIters, "hmc-iters", 0, "HMC iterations (0 = default)")
	flag.IntVar(&o.chains, "chains", 1, "independent MH chains; 2+ adds R-hat diagnostics")
	flag.IntVar(&o.workers, "workers", 0, "chains run concurrently on this many workers (0 = all cores, 1 = sequential); results are identical at any setting")
	flag.Float64Var(&o.missRate, "miss-rate", 0, "measurement-error rate for the § 7.2 likelihood (0 = off)")
	flag.StringVar(&o.model, "model", "", "observation model: rfd (default) or churn")
	flag.Float64Var(&o.churnRate, "churn-rate", 0, "background path-change rate for the churn model")
	flag.BoolVar(&o.progress, "progress", false, "render live sampler progress on stderr")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and pprof on this address (e.g. :8080)")
	flag.StringVar(&o.logLevel, "log-level", "", "structured log level on stderr: debug, info, warn, error (default: off)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the run's JSON trace (span tree, durations, sampler attributes) to this file")
	flag.StringVar(&o.remote, "remote", "", "run the inference on a becaused at this base URL (e.g. http://127.0.0.1:8642) instead of in-process")
	flag.Parse()

	observer, err := obs.NewLeveled(o.logLevel, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "becausectl:", err)
		os.Exit(2)
	}
	if o.metricsAddr != "" {
		srv, err := obs.Serve(o.metricsAddr, observer.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "becausectl:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "becausectl: metrics on %s/metrics\n", srv.URL())
	}
	if err := run(o, observer, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "becausectl:", err)
		// The API's typed errors pick the exit code: bad input is a usage
		// error (2), anything else a runtime failure (1).
		if errors.Is(err, because.ErrInvalidOptions) || errors.Is(err, because.ErrNoObservations) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(o options, observer *obs.Observer, stdout io.Writer) error {
	var r io.Reader = os.Stdin
	if o.in != "" {
		f, err := os.Open(o.in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	records, err := decode(r)
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return because.ErrNoObservations
	}
	// One request serves both modes: remote mode sends it to becaused,
	// local mode reads it exactly as becaused does.
	req := serve.InferRequest{
		Observations: records,
		Options: serve.RequestOptions{
			Seed: o.seed, Prior: o.prior,
			MHSweeps: o.mhSweeps, HMCIterations: o.hmcIters,
			Chains: o.chains, MissRate: o.missRate,
			Model: o.model, ChurnRate: o.churnRate,
		},
	}
	if o.remote != "" {
		return runRemote(o, req, stdout)
	}
	obsIn, opts, err := req.ToOptions(o.workers, observer)
	if err != nil {
		return err
	}
	if o.progress {
		opts.OnProgress = printProgress
	}

	if o.traceOut == "" {
		res, err := because.Infer(obsIn, opts)
		if err != nil {
			return err
		}
		return render(o, res, len(obsIn), stdout)
	}

	// Traced run: root the request-scoped trace on a deterministic
	// identity (the run's semantic inputs), so the span tree and IDs are
	// reproducible for the same invocation at any -workers value.
	tr := obs.NewTrace("becausectl", fmt.Sprintf("seed=%d|prior=%s|paths=%d", o.seed, o.prior, len(obsIn)))
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	res, err := because.InferContext(ctx, obsIn, opts)
	tr.Root().End()
	if err != nil {
		return err
	}
	if err := writeTrace(o.traceOut, tr.Export()); err != nil {
		return err
	}
	return render(o, res, len(obsIn), stdout)
}

// printProgress renders one sampler progress event on stderr. Shared by
// the local and remote paths.
func printProgress(ev because.ProgressEvent) {
	fmt.Fprintf(os.Stderr, "becausectl: %s chain %d: %d/%d sweeps, acceptance %.2f\n",
		ev.Stage, ev.Chain, ev.Done, ev.Total, ev.AcceptanceRate())
}

// writeTrace marshals a trace export (or any JSON document) to path.
func writeTrace(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// render prints the result the way the flags ask for — the JSON reports
// array or the diagnostic table. Shared by the local and remote paths.
func render(o options, res *because.Result, observations int, stdout io.Writer) error {
	reports := res.Reports
	if o.flaggedOnly {
		reports = res.Flagged()
	}
	if o.jsonOut {
		if reports == nil {
			reports = []because.ASReport{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}

	fmt.Fprintf(stdout, "observations: %d paths, %d ASes; MH acceptance %.2f, HMC acceptance %.2f",
		observations, len(res.Reports), res.MHAcceptance, res.HMCAcceptance)
	if res.HMCDivergences > 0 {
		fmt.Fprintf(stdout, " (%d divergences)", res.HMCDivergences)
	}
	fmt.Fprintln(stdout)
	rhatCol := o.chains >= 2
	header := "AS          mean   95% HDPI        certainty  cat  paths(+/-)"
	if rhatCol {
		header += "  rhat"
	}
	fmt.Fprintln(stdout, header)
	for _, rep := range reports {
		pin := ""
		if rep.Pinpointed {
			pin = "  (pinpointed)"
		}
		fmt.Fprintf(stdout, "%-10d %5.2f  [%4.2f, %4.2f]    %5.2f     %d    %d/%d",
			rep.AS, rep.Mean, rep.CredibleLow, rep.CredibleHigh,
			rep.Certainty, rep.Category, rep.PositivePaths, rep.NegativePaths)
		if rhatCol {
			if math.IsNaN(rep.RHat) {
				fmt.Fprintf(stdout, "     -")
			} else {
				fmt.Fprintf(stdout, "  %4.2f", rep.RHat)
			}
		}
		fmt.Fprintln(stdout, pin)
	}
	counts := res.CategoryCounts()
	fmt.Fprintf(stdout, "categories: 1=%d 2=%d 3=%d 4=%d 5=%d; flagged: %d\n",
		counts[1], counts[2], counts[3], counts[4], counts[5], len(res.Flagged()))
	return nil
}

// decode accepts either a JSON array of observations or newline-delimited
// JSON, in the serve wire's Observation shape.
func decode(r io.Reader) ([]serve.Observation, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var arr []serve.Observation
	if err := json.Unmarshal(data, &arr); err == nil {
		return arr, nil
	}
	// Fall back to NDJSON.
	dec := json.NewDecoder(bytes.NewReader(data))
	var out []serve.Observation
	for {
		var rec serve.Observation
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing input: %w", err)
		}
		out = append(out, rec)
	}
	return out, nil
}
