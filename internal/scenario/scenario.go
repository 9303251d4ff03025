// Package scenario gives experiments a declarative, versioned form. A
// scenario document (JSON, stdlib-only) captures everything that defines
// one reproduction run — topology generation parameters, the beacon
// campaign plan, the planted RFD deployment mix from the paper's
// Appendix B, vantage-point counts, seeds — plus the expected
// certainty-category outcomes, so the whole experiment is a reviewable
// artifact rather than Go code.
//
// Three operations are built on the format:
//
//   - Parse/Load read and strictly validate a document (unknown fields are
//     rejected; failures are *because.ValidationError naming the field in
//     wire spelling).
//   - Render resolves the document into the concrete world it describes —
//     every damper's RFC 2439 parameters, per-session damping decisions,
//     site and vantage-point placement — and serializes it to a canonical
//     text form. The corpus under testdata/scenarios/ keeps one golden
//     render per scenario; simulator behaviour changes surface as golden
//     diffs instead of silent drift.
//   - Run executes the scenario end to end (campaign simulation, labeling,
//     BeCAUSe inference) and checks the document's expectations against
//     the planted ground truth.
//
// Renders and runs are clock- and RNG-free given the document: everything
// derives from the scenario seed, which is why the package sits on the
// becauselint determinism path and why goldens can be byte-compared.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"because"
	"because/internal/beacon"
	"because/internal/bgp"
	"because/internal/experiment"
	"because/internal/topology"
)

// FormatVersion is the scenario document format this package reads and
// writes. Bump it on any non-additive change to the Spec schema; loaders
// reject documents declaring a newer version than they speak.
const FormatVersion = 1

// Spec is one scenario document. The JSON field spelling is the wire
// format checked into testdata/scenarios/ and locked by wire.lock.
type Spec struct {
	// FormatVersion must be 1.
	FormatVersion int `json:"format_version"`
	// Name identifies the scenario; corpus documents must match their
	// file's base name.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Workload selects what the inference is evaluated against: "rfd"
	// (default) scores against the planted RFD deployment, "rov" runs the
	// § 7 ROV benchmark synthesised over the same measured paths.
	Workload string `json:"workload,omitempty"`
	// Model selects the observation model inference draws against: ""/"rfd"
	// is the default RFD-signature likelihood; "churn" relabels the same
	// campaign as binary path-change observations and infers under the
	// churn model. Only the default (rfd) workload accepts a model override.
	Model string `json:"model,omitempty"`
	// ChurnRate is the churn model's background-churn probability β;
	// only meaningful (and only accepted) with Model == "churn".
	ChurnRate float64 `json:"churn_rate,omitempty"`
	// Seed drives every derived RNG stream (world building, campaign
	// delays, inference chains).
	Seed uint64 `json:"seed"`
	// Workers bounds run concurrency; results are bit-identical at any
	// value (0 selects GOMAXPROCS, 1 is sequential).
	Workers int `json:"workers,omitempty"`

	Topology TopologySpec `json:"topology"`
	// Sites is the number of beacon deployments.
	Sites int `json:"sites"`
	// VPsPerProject is the number of vantage points per collector project.
	VPsPerProject int `json:"vps_per_project"`

	RFD   RFDSpec    `json:"rfd"`
	Churn *ChurnSpec `json:"churn,omitempty"`

	Campaign CampaignSpec `json:"campaign"`
	Expect   ExpectSpec   `json:"expect"`
}

// TopologySpec mirrors topology.GenConfig in wire spelling.
type TopologySpec struct {
	Tier1               int     `json:"tier1"`
	Transit             int     `json:"transit"`
	Stubs               int     `json:"stubs"`
	TransitMaxProviders int     `json:"transit_max_providers"`
	TransitPeerDegree   float64 `json:"transit_peer_degree"`
	StubMaxProviders    int     `json:"stub_max_providers"`
	BaseASN             uint32  `json:"base_asn"`
}

// RFDSpec is the planted deployment mix (experiment.ScenarioConfig's RFD
// knobs in wire spelling).
type RFDSpec struct {
	// Share is the fraction of eligible transit ASes that deploy RFD.
	Share float64 `json:"share"`
	// VendorDefaultShare is the fraction of dampers on deprecated vendor
	// defaults (Cisco/Juniper); the rest follow RFC 7454.
	VendorDefaultShare float64 `json:"vendor_default_share"`
	// AggressiveShare is the fraction running the tightened-legacy
	// configuration that damps even 15-minute flapping.
	AggressiveShare float64 `json:"aggressive_share,omitempty"`
	// InconsistentDampers spare one neighbor (the AS 701 pattern).
	InconsistentDampers int `json:"inconsistent_dampers,omitempty"`
	// CustomerOnlyDampers damp only customer sessions.
	CustomerOnlyDampers int `json:"customer_only_dampers,omitempty"`
	// MaxSuppress10Share / MaxSuppress30Share plant the Figure-13
	// max-suppress-time plateaus among Cisco-default dampers.
	MaxSuppress10Share float64 `json:"max_suppress_10_share,omitempty"`
	MaxSuppress30Share float64 `json:"max_suppress_30_share,omitempty"`
}

// ChurnSpec adds background (non-beacon) prefix churn to the campaign.
type ChurnSpec struct {
	BackgroundPrefixes int      `json:"background_prefixes"`
	MeanInterval       Duration `json:"mean_interval,omitempty"`
}

// CampaignSpec is the beacon campaign plan.
type CampaignSpec struct {
	Name      string     `json:"name"`
	Intervals []Duration `json:"intervals"`
	BurstLen  Duration   `json:"burst_len"`
	BreakLen  Duration   `json:"break_len"`
	Pairs     int        `json:"pairs"`
}

// ExpectSpec states the scenario's expected outcomes. Zero-valued checks
// are skipped; pointer checks distinguish "not stated" from "zero".
type ExpectSpec struct {
	// MinDampers is the minimum number of planted dampers (ground truth,
	// not inference — it guards the world construction).
	MinDampers int `json:"min_dampers,omitempty"`
	// Presets lists parameter-preset names (cisco, juniper, rfc7454,
	// aggressive-legacy) that must each appear among the planted dampers.
	Presets []string `json:"presets,omitempty"`
	// Categories pins the inferred certainty category (1..5) of individual
	// ASes, keyed by decimal ASN.
	Categories map[string]int `json:"categories,omitempty"`
	// MaxFalseDiscovery bounds the share of flagged (category 4/5) ASes
	// that were not planted.
	MaxFalseDiscovery *float64 `json:"max_false_discovery,omitempty"`
	// MinDetectableRecall is the minimum share of detectable planted
	// dampers (adopters, for the rov workload) that inference flags.
	MinDetectableRecall *float64 `json:"min_detectable_recall,omitempty"`
}

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "2h0m0s") so scenario documents stay human-reviewable.
type Duration time.Duration

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"90s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("parsing duration: %w", err)
	}
	*d = Duration(v)
	return nil
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// presetNames are the parameter presets Expect.Presets may reference —
// exactly the Appendix B mix the experiment plants.
var presetNames = map[string]bool{
	"cisco":             true,
	"juniper":           true,
	"rfc7454":           true,
	"aggressive-legacy": true,
}

// errf builds the package's typed validation error: it unwraps to
// because.ErrInvalidOptions, so becausectl exits 2 and becaused answers
// 422 on bad scenario documents exactly as they do on bad inference
// options.
func errf(field, reason string, args ...any) error {
	return &because.ValidationError{Field: field, Reason: fmt.Sprintf(reason, args...)}
}

// Validate checks the document for internal consistency. Failures are
// *because.ValidationError naming the offending field in wire spelling.
func (s *Spec) Validate() error {
	if s.FormatVersion != FormatVersion {
		return errf("format_version", "must be %d (got %d)", FormatVersion, s.FormatVersion)
	}
	if s.Name == "" {
		return errf("name", "must be non-empty")
	}
	switch s.Workload {
	case "", "rfd", "rov":
	default:
		return errf("workload", "unknown workload %q (want rfd or rov)", s.Workload)
	}
	if s.ResolvedModel() != because.ModelRFD && s.ResolvedWorkload() != "rfd" {
		return errf("model", "model %q requires the default rfd workload", s.Model)
	}
	// The model fields share the inference options' wire spelling.
	if err := (because.Options{Model: s.Model, ChurnRate: s.ChurnRate}).Validate(); err != nil {
		return err
	}
	if s.Workers < 0 {
		return errf("workers", "must be non-negative")
	}
	if s.Topology.Tier1 < 1 {
		return errf("topology.tier1", "need at least one tier-1 AS")
	}
	if s.Topology.Transit < 0 || s.Topology.Stubs < 0 {
		return errf("topology.transit", "transit and stub counts must be non-negative")
	}
	if s.Sites < 1 {
		return errf("sites", "need at least one beacon site")
	}
	if s.VPsPerProject < 1 {
		return errf("vps_per_project", "need at least one vantage point per project")
	}
	for field, share := range map[string]float64{
		"rfd.share":                 s.RFD.Share,
		"rfd.vendor_default_share":  s.RFD.VendorDefaultShare,
		"rfd.aggressive_share":      s.RFD.AggressiveShare,
		"rfd.max_suppress_10_share": s.RFD.MaxSuppress10Share,
		"rfd.max_suppress_30_share": s.RFD.MaxSuppress30Share,
	} {
		if share < 0 || share > 1 {
			return errf(field, "must be in [0, 1], got %g", share)
		}
	}
	if s.RFD.MaxSuppress10Share+s.RFD.MaxSuppress30Share > 1 {
		return errf("rfd.max_suppress_30_share", "max-suppress shares must sum to at most 1")
	}
	if s.RFD.InconsistentDampers < 0 || s.RFD.CustomerOnlyDampers < 0 {
		return errf("rfd.inconsistent_dampers", "damper counts must be non-negative")
	}
	if s.Churn != nil {
		if s.Churn.BackgroundPrefixes < 1 {
			return errf("churn.background_prefixes", "must be positive when churn is present")
		}
		if s.Churn.MeanInterval < 0 {
			return errf("churn.mean_interval", "must be non-negative")
		}
	}
	if err := s.BeaconCampaign().Validate(); err != nil {
		return errf("campaign", "%v", err)
	}
	return s.Expect.validate()
}

func (e *ExpectSpec) validate() error {
	if e.MinDampers < 0 {
		return errf("expect.min_dampers", "must be non-negative")
	}
	for _, p := range e.Presets {
		if !presetNames[p] {
			return errf("expect.presets", "unknown preset %q (want cisco, juniper, rfc7454 or aggressive-legacy)", p)
		}
	}
	for key, cat := range e.Categories {
		if _, err := strconv.ParseUint(key, 10, 32); err != nil {
			return errf("expect.categories", "key %q is not a decimal ASN", key)
		}
		if cat < 1 || cat > 5 {
			return errf("expect.categories", "category for AS %s must be 1..5, got %d", key, cat)
		}
	}
	if e.MaxFalseDiscovery != nil && (*e.MaxFalseDiscovery < 0 || *e.MaxFalseDiscovery > 1) {
		return errf("expect.max_false_discovery", "must be in [0, 1]")
	}
	if e.MinDetectableRecall != nil && (*e.MinDetectableRecall < 0 || *e.MinDetectableRecall > 1) {
		return errf("expect.min_detectable_recall", "must be in [0, 1]")
	}
	return nil
}

// ResolvedWorkload returns the effective workload ("rfd" unless stated).
func (s *Spec) ResolvedWorkload() string {
	if s.Workload == "" {
		return "rfd"
	}
	return s.Workload
}

// ResolvedModel returns the effective observation model (because.ModelRFD
// unless another model is stated).
func (s *Spec) ResolvedModel() string {
	if s.Model == "" {
		return because.ModelRFD
	}
	return s.Model
}

// ExpectedCategories returns the pinned per-AS category expectations in
// ascending ASN order. Keys were validated as decimal ASNs by Validate.
func (e *ExpectSpec) ExpectedCategories() []ExpectedCategory {
	out := make([]ExpectedCategory, 0, len(e.Categories))
	for key, cat := range e.Categories {
		n, err := strconv.ParseUint(key, 10, 32)
		if err != nil {
			continue // unvalidated spec; Validate reports this properly
		}
		out = append(out, ExpectedCategory{ASN: bgp.ASN(n), Category: cat})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// ExpectedCategory is one pinned per-AS expectation.
type ExpectedCategory struct {
	ASN      bgp.ASN
	Category int
}

// ScenarioConfig maps the document onto the experiment harness's
// configuration.
func (s *Spec) ScenarioConfig() experiment.ScenarioConfig {
	cfg := experiment.ScenarioConfig{
		Seed: s.Seed,
		Topology: topology.GenConfig{
			Tier1:               s.Topology.Tier1,
			Transit:             s.Topology.Transit,
			Stubs:               s.Topology.Stubs,
			TransitMaxProviders: s.Topology.TransitMaxProviders,
			TransitPeerDegree:   s.Topology.TransitPeerDegree,
			StubMaxProviders:    s.Topology.StubMaxProviders,
			BaseASN:             bgp.ASN(s.Topology.BaseASN),
		},
		Sites:               s.Sites,
		VPsPerProject:       s.VPsPerProject,
		RFDShare:            s.RFD.Share,
		VendorDefaultShare:  s.RFD.VendorDefaultShare,
		AggressiveShare:     s.RFD.AggressiveShare,
		InconsistentDampers: s.RFD.InconsistentDampers,
		CustomerOnlyDampers: s.RFD.CustomerOnlyDampers,
		MaxSuppress10Share:  s.RFD.MaxSuppress10Share,
		MaxSuppress30Share:  s.RFD.MaxSuppress30Share,
		Workers:             s.Workers,
	}
	if s.Churn != nil {
		cfg.BackgroundPrefixes = s.Churn.BackgroundPrefixes
		cfg.ChurnMeanInterval = s.Churn.MeanInterval.Std()
	}
	return cfg
}

// BeaconCampaign maps the campaign plan onto the beacon scheduler.
func (s *Spec) BeaconCampaign() beacon.Campaign {
	intervals := make([]time.Duration, len(s.Campaign.Intervals))
	for i, iv := range s.Campaign.Intervals {
		intervals[i] = iv.Std()
	}
	return beacon.Campaign{
		Name:      s.Campaign.Name,
		Intervals: intervals,
		BurstLen:  s.Campaign.BurstLen.Std(),
		BreakLen:  s.Campaign.BreakLen.Std(),
		Pairs:     s.Campaign.Pairs,
	}
}

// Build constructs the world the document describes.
func (s *Spec) Build() (*experiment.Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	world, err := experiment.NewScenario(s.ScenarioConfig())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return world, nil
}

// CanonicalJSON returns the document's canonical serialized form: fixed
// field order (the Spec struct order), durations as strings, no
// indentation. becaused hashes it into scenario cache keys.
func (s *Spec) CanonicalJSON() ([]byte, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: canonical form: %w", s.Name, err)
	}
	return data, nil
}
