// Package because is the public API of BeCAUSe — BayEsian Computation for
// AUtonomous SystEms — a network-tomography framework for locating which
// autonomous systems apply a binary routing property (Route Flap Damping,
// RPKI Route Origin Validation, community filtering, ...) from end-to-end
// path observations, reproducing Gray et al., "BGP Beacons, Network
// Tomography, and Bayesian Computation to Locate Route Flap Damping"
// (IMC 2020).
//
// The input is a set of AS paths, each labeled with whether the property
// was observed on it. The engine models, for every AS i, the proportion
// p_i of routes the AS applies the property to, and samples the joint
// posterior with two MCMC methods (Metropolis–Hastings and Hamiltonian
// Monte Carlo). The output is not just a yes/no per AS but a diagnostic
// picture: posterior mean, 95% highest-posterior-density interval, a
// five-level certainty category, and a second pinpointing pass that
// identifies ASes applying the property inconsistently (the paper's AS 701
// case).
//
// Minimal usage:
//
//	obs := []because.PathObservation{
//	    {Path: []because.ASN{64500, 64510, 64520}, ShowsProperty: true},
//	    {Path: []because.ASN{64500, 64530}, ShowsProperty: false},
//	    // ... one entry per labeled measurement ...
//	}
//	res, err := because.Infer(obs, because.Options{Seed: 1})
//	if err != nil { ... }
//	for _, r := range res.Flagged() {
//	    fmt.Printf("%d damps (mean %.2f, category %d)\n", r.AS, r.Mean, r.Category)
//	}
//
// The measurement side of the paper — two-phase BGP Beacons, the simulated
// AS topology, RFC 2439 damping routers, MRT-archiving route collectors and
// the RFD-signature labeler — lives in this module's internal packages and
// is exercised by the cmd/ tools and examples/.
package because

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"because/internal/bgp"
	"because/internal/churn"
	"because/internal/core"
	"because/internal/obs"
)

// SchemaVersion identifies the JSON wire schema emitted by Result and
// ASReport marshalling (and therefore by the becaused HTTP API). It is
// bumped whenever a field changes meaning or disappears; additive changes
// keep the version. Consumers should reject documents whose schema_version
// they do not understand.
const SchemaVersion = 1

// API-boundary sentinel errors. They (and ValidationError) are the only
// failures Infer and InferContext produce for bad input, so callers can
// switch on errors.Is/errors.As to pick exit codes or HTTP statuses
// instead of matching message strings.
var (
	// ErrNoObservations reports an empty observation set.
	ErrNoObservations = errors.New("because: no observations")
	// ErrInvalidOptions is the class every options-validation failure
	// unwraps to; the concrete error is a *ValidationError naming the field.
	ErrInvalidOptions = errors.New("because: invalid options")
)

// ValidationError pinpoints the input field that failed validation. It
// unwraps to ErrInvalidOptions, so errors.Is(err, ErrInvalidOptions) and
// errors.As(err, *ValidationError) both work.
type ValidationError struct {
	// Field names the offending Options field (or observation element) in
	// the wire-schema spelling, e.g. "miss_rate" or "observations[3].path".
	Field string
	// Reason says what about it was invalid.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("because: invalid options: %s: %s", e.Field, e.Reason)
}

// Unwrap makes every validation failure match ErrInvalidOptions.
func (e *ValidationError) Unwrap() error { return ErrInvalidOptions }

// Observation-model names accepted by Options.Model. Each selects a
// likelihood interpretation of the binary path observations (an
// internal core.ObservationModel implementation); the resolved name is
// carried on Result and ASReport and keyed into becaused's result cache.
const (
	// ModelRFD is the default: the paper's § 3.1 beacon tomography
	// likelihood, optionally under the § 7.2 MissRate error model.
	ModelRFD = "rfd"
	// ModelChurn is binary path-change tomography (per "A Churn for the
	// Better"): the same noisy-OR core with an explicit background-churn
	// probability (ChurnRate) absorbing instability that no modeled AS
	// causes. MissRate composes with it.
	ModelChurn = "churn"
)

// ModelNames lists the accepted Options.Model values, in wire spelling.
func ModelNames() []string { return []string{ModelRFD, ModelChurn} }

// ASN is an autonomous system number.
type ASN uint32

// PathObservation is one labeled measurement: an AS path (cleaned of
// prepending; by convention the vantage point first and the origin already
// removed, since an origin cannot apply the property to its own prefix) and
// whether the path exhibited the property.
type PathObservation struct {
	Path []ASN
	// ShowsProperty marks the path as positive (e.g. it showed the RFD
	// signature).
	ShowsProperty bool
	// Weight scales the observation's likelihood contribution (0 = 1).
	Weight float64
}

// Prior is the Beta(Alpha, Beta) prior placed on every AS's proportion.
type Prior struct {
	Alpha, Beta float64
}

// Ready-made priors.
var (
	// PriorSparse concentrates mass near 0 and 1: most ASes apply a policy
	// to (nearly) all routes or (nearly) none. The default.
	PriorSparse = Prior{0.4, 0.4}
	// PriorUniform is the uninformative choice.
	PriorUniform = Prior{1, 1}
	// PriorCentered mildly favors middling proportions; useful in
	// sensitivity analyses.
	PriorCentered = Prior{2, 2}
)

// Options configures an inference run. The zero value is usable: sparse
// prior, both samplers at the paper's settings, 95% intervals, pinpointing
// at the 0.8 vote threshold, seed 0.
type Options struct {
	// Prior on each p_i (zero value selects PriorSparse).
	Prior Prior
	// Seed makes runs reproducible.
	Seed uint64

	// MHSweeps and MHBurnIn control the Metropolis–Hastings sampler
	// (defaults 1500 / 375). DisableMH skips it.
	MHSweeps, MHBurnIn int
	DisableMH          bool
	// HMCIterations and HMCBurnIn control Hamiltonian Monte Carlo
	// (defaults 800 / 200). DisableHMC skips it.
	HMCIterations, HMCBurnIn int
	DisableHMC               bool
	// Chains runs this many independent MH chains (default 1); with two or
	// more, per-AS Gelman-Rubin R-hat convergence diagnostics are reported.
	Chains int
	// Workers bounds how many chains run concurrently (every MH chain and
	// the HMC run are independent tasks). 0 selects GOMAXPROCS; 1 forces
	// sequential execution. Results are bit-identical at any worker count:
	// each chain's RNG stream is derived from Seed before any chain starts.
	Workers int

	// HDPIMass is the credible-interval mass (default 0.95).
	HDPIMass float64
	// PinpointThreshold is the Eq. 8 vote share for flagging inconsistent
	// ASes (default 0.8; negative disables the pass).
	PinpointThreshold float64
	// MissRate, when positive, switches the likelihood to the paper's
	// § 7.2 measurement-error model: a truly-positive path is recorded
	// negative with this probability. Use it when the labeling stage is
	// known to lose signatures. It composes with every model.
	MissRate float64
	// Model selects the observation model ("" and ModelRFD are the
	// default likelihood; ModelChurn the path-change model). Unknown
	// names fail validation with a *ValidationError on field "model".
	Model string
	// ChurnRate is the churn model's background rate: the probability
	// that a path churns for reasons unrelated to any modeled AS. Only
	// meaningful — and only accepted — with Model == ModelChurn.
	ChurnRate float64

	// Obs attaches an observability context — metrics registry plus
	// structured logger — threaded through every inference stage. The
	// type lives in internal/obs, so it is settable by this module's own
	// tools (cmd/becausectl and friends); nil (the default) is a no-op
	// whose cost is a pointer check per sweep.
	Obs *obs.Observer
	// OnProgress, when non-nil, receives a ProgressEvent every
	// ProgressEvery sweeps and at each sampler's completion. Called
	// synchronously from the sampling loop; keep it fast. This is the
	// unified progress surface; see ProgressEvent.
	OnProgress func(ProgressEvent)
	// ProgressEvery is the progress cadence in sweeps (default 100).
	ProgressEvery int
}

// ProgressEvent is one sampler progress notification: the sampler Stage
// ("mh" or "hmc"), the Chain index, Done/Total sweeps or trajectories
// (burn-in included), the running Accepted/Proposed Metropolis counts, and
// AcceptanceRate. It is the samplers' own event type, so Options.OnProgress
// receives their stream unadapted.
type ProgressEvent = obs.Progress

// Validate checks the options for internal consistency. Infer and
// InferContext call it first; a failure is a *ValidationError (unwrapping
// to ErrInvalidOptions) that names the offending field.
func (o Options) Validate() error {
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"prior", o.Prior.Alpha}, {"prior", o.Prior.Beta},
		{"miss_rate", o.MissRate}, {"churn_rate", o.ChurnRate},
		{"hdpi_mass", o.HDPIMass}, {"pinpoint_threshold", o.PinpointThreshold},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &ValidationError{Field: f.field, Reason: fmt.Sprintf("%g is not a finite number", f.v)}
		}
	}
	if o.Prior != (Prior{}) && (o.Prior.Alpha <= 0 || o.Prior.Beta <= 0) {
		return &ValidationError{Field: "prior", Reason: fmt.Sprintf("Beta(%g, %g) parameters must be positive", o.Prior.Alpha, o.Prior.Beta)}
	}
	if o.MHSweeps < 0 {
		return &ValidationError{Field: "mh_sweeps", Reason: "must be non-negative"}
	}
	if o.MHBurnIn < 0 {
		return &ValidationError{Field: "mh_burn_in", Reason: "must be non-negative"}
	}
	if o.HMCIterations < 0 {
		return &ValidationError{Field: "hmc_iterations", Reason: "must be non-negative"}
	}
	if o.HMCBurnIn < 0 {
		return &ValidationError{Field: "hmc_burn_in", Reason: "must be non-negative"}
	}
	if o.DisableMH && o.DisableHMC {
		return &ValidationError{Field: "disable_mh, disable_hmc", Reason: "both samplers disabled"}
	}
	if o.Chains < 0 {
		return &ValidationError{Field: "chains", Reason: "must be non-negative"}
	}
	if o.Workers < 0 {
		return &ValidationError{Field: "workers", Reason: "must be non-negative"}
	}
	if o.HDPIMass < 0 || o.HDPIMass > 1 {
		return &ValidationError{Field: "hdpi_mass", Reason: "must be in [0, 1] (0 selects the 0.95 default)"}
	}
	if o.MissRate < 0 || o.MissRate >= 1 {
		return &ValidationError{Field: "miss_rate", Reason: "must be in [0, 1)"}
	}
	switch o.Model {
	case "", ModelRFD, ModelChurn:
	default:
		return &ValidationError{Field: "model", Reason: fmt.Sprintf("unknown model %q (want rfd or churn)", o.Model)}
	}
	if o.ChurnRate < 0 || o.ChurnRate >= 1 {
		return &ValidationError{Field: "churn_rate", Reason: "must be in [0, 1)"}
	}
	if o.ChurnRate > 0 && o.Model != ModelChurn {
		return &ValidationError{Field: "churn_rate", Reason: `only meaningful with model "churn"`}
	}
	if o.ProgressEvery < 0 {
		return &ValidationError{Field: "progress_every", Reason: "must be non-negative"}
	}
	return nil
}

// ResolvedModel returns the effective observation model name (ModelRFD
// unless another model is stated). It does not validate.
func (o Options) ResolvedModel() string {
	if o.Model == "" {
		return ModelRFD
	}
	return o.Model
}

// observationModel maps the validated options onto the internal model
// implementation the samplers draw against.
func (o Options) observationModel() core.ObservationModel {
	if o.ResolvedModel() == ModelChurn {
		return churn.Model{BackgroundRate: o.ChurnRate, MissRate: o.MissRate}
	}
	return core.RFDModel{MissRate: o.MissRate}
}

// Category is the five-level certainty scale of the paper's Table 1.
type Category int

// Categories: 1–2 likely clean, 3 uncertain, 4–5 likely applying the
// property.
const (
	CategoryHighlyLikelyNot Category = 1
	CategoryLikelyNot       Category = 2
	CategoryUncertain       Category = 3
	CategoryLikely          Category = 4
	CategoryHighlyLikely    Category = 5
)

// Positive reports whether the category flags the AS (4 or 5).
func (c Category) Positive() bool { return c >= CategoryLikely }

// ASReport is the inference outcome for one AS.
type ASReport struct {
	AS ASN
	// Model names the observation model the report was inferred under
	// (ModelRFD or ModelChurn).
	Model string
	// Mean is the posterior mean of the AS's proportion p.
	Mean float64
	// CredibleLow and CredibleHigh bound the 95% highest-posterior-density
	// interval; Certainty is 1 minus its width.
	CredibleLow, CredibleHigh float64
	Certainty                 float64
	// Category is the combined flag (highest across samplers, possibly
	// upgraded by the pinpointing pass).
	Category Category
	// Pinpointed marks ASes flagged by the inconsistency pass rather than
	// the plain thresholds.
	Pinpointed bool
	// PositivePaths and NegativePaths count the observations the AS
	// appeared on.
	PositivePaths, NegativePaths int
	// RHat is the Gelman-Rubin convergence diagnostic across MH chains
	// (NaN unless Options.Chains >= 2; values near 1 mean converged).
	RHat float64
}

// MarshalJSON renders the report with a schema_version marker and with the
// RHat diagnostic omitted when it was not computed (NaN is not
// representable in JSON).
func (r ASReport) MarshalJSON() ([]byte, error) {
	type wire struct {
		SchemaVersion int      `json:"schema_version"`
		AS            ASN      `json:"as"`
		Model         string   `json:"model,omitempty"`
		Mean          float64  `json:"mean"`
		CredibleLow   float64  `json:"credible_low"`
		CredibleHigh  float64  `json:"credible_high"`
		Certainty     float64  `json:"certainty"`
		Category      Category `json:"category"`
		Pinpointed    bool     `json:"pinpointed,omitempty"`
		PositivePaths int      `json:"positive_paths"`
		NegativePaths int      `json:"negative_paths"`
		RHat          *float64 `json:"rhat,omitempty"`
	}
	w := wire{
		SchemaVersion: SchemaVersion,
		AS:            r.AS, Model: r.Model,
		Mean: r.Mean, CredibleLow: r.CredibleLow, CredibleHigh: r.CredibleHigh,
		Certainty: r.Certainty, Category: r.Category, Pinpointed: r.Pinpointed,
		PositivePaths: r.PositivePaths, NegativePaths: r.NegativePaths,
	}
	if !math.IsNaN(r.RHat) {
		w.RHat = &r.RHat
	}
	return json.Marshal(w)
}

// Result is a complete inference outcome.
type Result struct {
	// Model names the observation model that produced the result (ModelRFD
	// or ModelChurn — the resolved name, never "").
	Model string
	// Reports lists every AS in ascending ASN order.
	Reports []ASReport
	// MHAcceptance and HMCAcceptance are the samplers' Metropolis
	// acceptance rates (0 when a sampler was disabled).
	MHAcceptance, HMCAcceptance float64
	// HMCDivergences counts trajectories whose Hamiltonian error blew up
	// (divergent transitions). More than a few percent of iterations
	// means the HMC step size is too large for the posterior geometry.
	HMCDivergences int

	byAS map[ASN]*ASReport
}

// MarshalJSON renders the whole result as a versioned wire document:
// schema_version, the per-AS reports (each versioned too) and the sampler
// diagnostics. This is the body becaused serves.
func (r *Result) MarshalJSON() ([]byte, error) {
	type wire struct {
		SchemaVersion  int        `json:"schema_version"`
		Model          string     `json:"model,omitempty"`
		Reports        []ASReport `json:"reports"`
		MHAcceptance   float64    `json:"mh_acceptance"`
		HMCAcceptance  float64    `json:"hmc_acceptance"`
		HMCDivergences int        `json:"hmc_divergences"`
	}
	reports := r.Reports
	if reports == nil {
		reports = []ASReport{}
	}
	return json.Marshal(wire{
		SchemaVersion: SchemaVersion,
		Model:         r.Model,
		Reports:       reports,
		MHAcceptance:  r.MHAcceptance, HMCAcceptance: r.HMCAcceptance,
		HMCDivergences: r.HMCDivergences,
	})
}

// Flagged returns the reports with a positive category (4 or 5), most
// certain first.
func (r *Result) Flagged() []ASReport {
	var out []ASReport
	for _, rep := range r.Reports {
		if rep.Category.Positive() {
			out = append(out, rep)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Certainty != out[j].Certainty {
			return out[i].Certainty > out[j].Certainty
		}
		return out[i].AS < out[j].AS
	})
	return out
}

// Lookup returns the report for one AS.
func (r *Result) Lookup(as ASN) (ASReport, bool) {
	rep, ok := r.byAS[as]
	if !ok {
		return ASReport{}, false
	}
	return *rep, true
}

// CategoryCounts returns how many ASes landed in each category (indices
// 1..5).
func (r *Result) CategoryCounts() [6]int {
	var out [6]int
	for _, rep := range r.Reports {
		if rep.Category >= 1 && rep.Category <= 5 {
			out[rep.Category]++
		}
	}
	return out
}

// Infer runs the BeCAUSe pipeline over the observations. It is
// InferContext without cancellation — the run always continues to
// completion.
func Infer(observations []PathObservation, opts Options) (*Result, error) {
	return InferContext(context.Background(), observations, opts)
}

// InferContext runs the BeCAUSe pipeline under a context. Cancellation is
// cooperative at sweep granularity: every running MCMC chain notices a
// cancelled context within one sweep and the call returns ctx.Err()
// (errors.Is-compatible with context.Canceled / context.DeadlineExceeded),
// with chains still queued on the worker pool skipped before they start.
// Cancellation can only abort a run, never perturb one: a run that
// completes under a context is bit-identical to the same run under Infer.
func InferContext(ctx context.Context, observations []PathObservation, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(observations) == 0 {
		return nil, ErrNoObservations
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// When the caller put a trace on ctx (becaused's job API, becausectl's
	// -trace-out), every pipeline stage below records into it; otherwise
	// each span is nil and the calls are no-ops.
	span, ctx := obs.StartTraceSpan(ctx, "infer")
	defer span.End()
	span.SetAttr("observations", len(observations))
	span.SetAttr("chains", opts.Chains)
	dsSpan, _ := obs.StartTraceSpan(ctx, "dataset")
	coreObs := make([]core.PathObs, 0, len(observations))
	for j, o := range observations {
		if len(o.Path) == 0 {
			return nil, &ValidationError{Field: fmt.Sprintf("observations[%d].path", j), Reason: "empty AS path"}
		}
		if !(o.Weight >= 0) || math.IsInf(o.Weight, 1) {
			return nil, &ValidationError{Field: fmt.Sprintf("observations[%d].weight", j), Reason: "must be finite and non-negative"}
		}
		asns := make([]bgp.ASN, len(o.Path))
		for i, a := range o.Path {
			asns[i] = bgp.ASN(a)
		}
		coreObs = append(coreObs, core.PathObs{ASNs: asns, Positive: o.ShowsProperty, Weight: o.Weight})
	}
	ds, err := core.NewDataset(coreObs)
	if err != nil {
		dsSpan.End()
		return nil, err
	}
	dsSpan.SetAttr("paths", ds.NumPaths())
	dsSpan.SetAttr("nodes", ds.NumNodes())
	dsSpan.End()
	cfg := core.Config{
		Seed:              opts.Seed,
		HDPIMass:          opts.HDPIMass,
		PinpointThreshold: opts.PinpointThreshold,
		Model:             opts.observationModel(),
		Chains:            opts.Chains,
		Workers:           opts.Workers,
		DisableMH:         opts.DisableMH,
		DisableHMC:        opts.DisableHMC,
		MH:                core.MHConfig{Sweeps: opts.MHSweeps, BurnIn: opts.MHBurnIn},
		HMC:               core.HMCConfig{Iterations: opts.HMCIterations, BurnIn: opts.HMCBurnIn},
		Obs:               opts.Obs,
		Progress:          opts.OnProgress,
		ProgressEvery:     opts.ProgressEvery,
	}
	if opts.Prior != (Prior{}) {
		cfg.Prior = core.Prior{Alpha: opts.Prior.Alpha, Beta: opts.Prior.Beta}
	}
	res, err := core.InferContext(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{Model: res.Model, byAS: make(map[ASN]*ASReport, len(res.Summaries))}
	for _, s := range res.Summaries {
		out.Reports = append(out.Reports, ASReport{
			AS:            ASN(s.ASN),
			Model:         res.Model,
			Mean:          s.Mean,
			CredibleLow:   s.HDPI.Lo,
			CredibleHigh:  s.HDPI.Hi,
			Certainty:     s.Certainty,
			Category:      Category(s.Category),
			Pinpointed:    s.Pinpointed,
			PositivePaths: s.PosPaths,
			NegativePaths: s.NegPaths,
			RHat:          s.RHat,
		})
	}
	sort.Slice(out.Reports, func(i, j int) bool { return out.Reports[i].AS < out.Reports[j].AS })
	for i := range out.Reports {
		out.byAS[out.Reports[i].AS] = &out.Reports[i]
	}
	for _, c := range res.Chains {
		switch c.Method {
		case "mh":
			out.MHAcceptance = c.AcceptanceRate()
		case "hmc":
			out.HMCAcceptance = c.AcceptanceRate()
			out.HMCDivergences = c.Divergent
		}
	}
	return out, nil
}
