package experiment

import (
	"context"
	"fmt"
	"time"

	"because/internal/beacon"
	"because/internal/bgp"
	"because/internal/collector"
	"because/internal/core"
	"because/internal/heuristics"
	"because/internal/label"
	"because/internal/netsim"
	"because/internal/obs"
	"because/internal/router"
	"because/internal/stats"
	"because/internal/topology"
)

// Run is one executed measurement campaign: the archived vantage point
// feeds, the schedules that generated them, and the labeled paths.
type Run struct {
	Scenario  *Scenario
	Campaign  beacon.Campaign
	Schedules []beacon.Schedule
	Entries   []collector.Entry
	// Measurements are the labeled paths (the tomography input).
	Measurements []label.Measurement
	// Propagation holds the anchor-prefix control samples (Figure 8).
	Propagation []label.PropagationSample
	// UpdatesSent counts all speaker-to-speaker messages, for the ethics
	// appendix style accounting and runaway detection in tests.
	UpdatesSent uint64
}

// IntervalCampaign builds a single-interval campaign, used by the
// Figure-12 sweep where each update interval is analysed independently.
func IntervalCampaign(interval time.Duration, pairs int) beacon.Campaign {
	breakLen := 2 * time.Hour
	if interval < 5*time.Minute {
		// Fast intervals pump penalties far above the reuse threshold; a
		// long Break guarantees release strictly inside the Break, matching
		// the paper's March design.
		breakLen = 6 * time.Hour
	}
	return beacon.Campaign{
		Name:      fmt.Sprintf("interval-%s", interval),
		Intervals: []time.Duration{interval},
		BurstLen:  2 * time.Hour,
		BreakLen:  breakLen,
		Pairs:     pairs,
	}
}

// vpList converts the scenario's VP specs into collector vantage points.
func (s *Scenario) vpList() []collector.VantagePoint {
	out := make([]collector.VantagePoint, 0, len(s.VPs))
	for _, vp := range s.VPs {
		out = append(out, collector.VantagePoint{AS: vp.AS, Project: collector.Projects[vp.Project]})
	}
	return out
}

// RunCampaignContext executes one campaign over the scenario: a fresh
// simulated network (same seed-derived delays each time), beacons driven
// on schedule, collection, and labeling. When ctx carries a trace
// (obs.ContextWithSpan), the measurement pipeline records a "campaign"
// span with attach/label children. The simulation itself is not a
// cancellation point — the context is an observability position.
func (s *Scenario) RunCampaignContext(ctx context.Context, c beacon.Campaign) (*Run, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Derive a campaign-specific but deterministic RNG stream.
	seed := s.Config.Seed
	for _, ch := range c.Name {
		seed = seed*31 + uint64(ch)
	}
	rng := stats.NewRNG(seed)
	span, ctx := s.Obs.StartSpan(ctx, "campaign")
	span.SetAttr("campaign", c.Name)
	defer span.End()

	eng := netsim.NewEngine(Start.Add(-time.Hour))
	opts := router.Options{
		RFD: s.RFDPolicyFor,
	}
	net := router.New(eng, s.Graph, opts, rng.Split())
	col := collector.New(rng.Split())
	col.SetObserver(s.Obs)
	if err := col.AttachContext(ctx, net, s.vpList()); err != nil {
		return nil, err
	}
	schedules, err := c.Schedules(s.Sites, Start)
	if err != nil {
		return nil, err
	}
	for _, sched := range schedules {
		evs, err := sched.Events()
		if err != nil {
			return nil, err
		}
		if err := beacon.Drive(eng, net, evs); err != nil {
			return nil, err
		}
	}
	if err := s.scheduleChurn(eng, net, rng.Split(), c.Duration()); err != nil {
		return nil, err
	}
	eng.Run()

	entries := col.Entries() // sorts the feed; bind it once
	run := &Run{
		Scenario:     s,
		Campaign:     c,
		Schedules:    schedules,
		Entries:      entries,
		Measurements: label.LabelPathsContext(ctx, entries, schedules, label.Config{Obs: s.Obs}),
		Propagation:  label.PropagationDeltas(entries, schedules),
	}
	for _, asn := range s.Graph.ASNs() {
		run.UpdatesSent += net.Router(asn).UpdatesSent
	}
	s.Obs.Log(obs.LevelInfo, "campaign done",
		"campaign", c.Name, "updates_sent", run.UpdatesSent,
		"entries", len(run.Entries), "paths", len(run.Measurements))
	return run, nil
}

// BackgroundPrefix returns the i-th background (non-beacon) prefix:
// 172.16.x.y/24 — disjoint from the 10.0.0.0/8 beacon space.
func BackgroundPrefix(i int) bgp.Prefix {
	return bgp.MustPrefix(fmt.Sprintf("172.%d.%d.0/24", 16+i/256, i%256))
}

// scheduleChurn arms the background prefixes' announce/withdraw flips: each
// prefix belongs to a random stub and toggles with exponentially
// distributed gaps, the Internet's ordinary churn the paper's beacons had
// to share the control plane with (Appendix A).
func (s *Scenario) scheduleChurn(eng *netsim.Engine, net *router.Network, rng *stats.RNG, total time.Duration) error {
	if s.Config.BackgroundPrefixes <= 0 {
		return nil
	}
	mean := s.Config.ChurnMeanInterval
	if mean <= 0 {
		mean = 30 * time.Minute
	}
	var stubs []bgp.ASN
	for _, asn := range s.Graph.ASNs() {
		if s.Graph.AS(asn).Tier == topology.TierStub {
			stubs = append(stubs, asn)
		}
	}
	if len(stubs) == 0 {
		return fmt.Errorf("experiment: no stubs to own background prefixes")
	}
	for i := 0; i < s.Config.BackgroundPrefixes; i++ {
		prefix := BackgroundPrefix(i)
		owner := stubs[rng.Intn(len(stubs))]
		announced := true
		if err := net.Originate(owner, prefix, uint32(i)); err != nil {
			return err
		}
		at := Start.Add(-30 * time.Minute)
		for {
			at = at.Add(time.Duration(rng.Exp() * float64(mean)))
			if at.Sub(Start) > total {
				break
			}
			announced = !announced
			flipTo := announced
			when, p, o := at, prefix, owner
			seq := uint32(i)
			eng.At(when, netsim.Func(func() {
				if flipTo {
					_ = net.Originate(o, p, seq)
				} else {
					_ = net.WithdrawOrigin(o, p)
				}
			}))
		}
	}
	return nil
}

// Dataset compiles the run's measurements into the tomography input: one
// observation per labeled path, over the tomography portion (origin
// excluded).
func (r *Run) Dataset() (*core.Dataset, error) {
	var obs []core.PathObs
	for _, m := range r.Measurements {
		tomo := m.TomographyPath()
		if len(tomo) == 0 {
			continue
		}
		obs = append(obs, core.PathObs{ASNs: tomo, Positive: m.RFD})
	}
	if len(obs) == 0 {
		return nil, fmt.Errorf("experiment: campaign %s produced no measurements", r.Campaign.Name)
	}
	return core.NewDataset(obs)
}

// InferConfig is the standard inference configuration used by all
// experiments (deterministic, both samplers).
func InferConfig(seed uint64) core.Config {
	return core.Config{
		Seed: seed,
		MH:   core.MHConfig{Sweeps: 1600, BurnIn: 400},
		HMC:  core.HMCConfig{Iterations: 600, BurnIn: 200},
	}
}

// InferContext runs BeCAUSe over the campaign's measurements,
// instrumented with the scenario's observer. The sampler chains stop
// within one sweep of cancellation and the call returns ctx.Err(). The
// campaign simulation itself already happened when a Run exists, so
// inference is the only cancellable stage.
func (r *Run) InferContext(ctx context.Context) (*core.Result, *core.Dataset, error) {
	ds, err := r.Dataset()
	if err != nil {
		return nil, nil, err
	}
	cfg := InferConfig(r.Scenario.Config.Seed + 7)
	cfg.Obs = r.Scenario.Obs
	cfg.Workers = r.Scenario.Config.Workers
	res, err := core.InferContext(ctx, ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, ds, nil
}

// InferModelContext runs BeCAUSe over caller-labeled observations under
// an explicit observation model, with the run's standard sampler settings
// and the same seed derivation as InferContext — so swapping the model is
// the ONLY difference between workloads built on the same campaign. This
// is the entry the scenario runner dispatches non-default models through.
func (r *Run) InferModelContext(ctx context.Context, obs []core.PathObs, model core.ObservationModel) (*core.Result, *core.Dataset, error) {
	if len(obs) == 0 {
		return nil, nil, fmt.Errorf("experiment: campaign %s produced no observations", r.Campaign.Name)
	}
	ds, err := core.NewDataset(obs)
	if err != nil {
		return nil, nil, err
	}
	cfg := InferConfig(r.Scenario.Config.Seed + 7)
	cfg.Obs = r.Scenario.Obs
	cfg.Workers = r.Scenario.Config.Workers
	cfg.Model = model
	res, err := core.InferContext(ctx, ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, ds, nil
}

// Heuristics runs the § 5.2 baseline over the same inputs.
func (r *Run) Heuristics() []heuristics.Score {
	return heuristics.Evaluate(heuristics.Input{
		Measurements: r.Measurements,
		Entries:      r.Entries,
		Schedules:    r.Schedules,
	}, heuristics.Config{})
}

// MeasuredASes returns every AS that appeared on at least one labeled
// path's tomography portion — the population over which deployment shares
// are reported.
func (r *Run) MeasuredASes() map[bgp.ASN]bool {
	out := make(map[bgp.ASN]bool)
	for _, m := range r.Measurements {
		for _, a := range m.TomographyPath() {
			out[a] = true
		}
	}
	return out
}
