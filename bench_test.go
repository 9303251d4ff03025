// Benchmarks regenerating every table and figure of the paper, plus the
// ablation benches for the design choices called out in DESIGN.md. Each
// Benchmark{Fig,Tab}* target re-computes the corresponding artifact; the
// shared measurement campaigns are built once per process (they are the
// expensive part and identical across iterations by determinism).
//
// Run everything:
//
//	go test -bench=. -benchmem
package because_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"because"
	"because/internal/beacon"
	"because/internal/bgp"
	"because/internal/core"
	"because/internal/experiment"
	"because/internal/label"
	"because/internal/rfd"
	"because/internal/stats"
)

var (
	benchOnce  sync.Once
	benchSuite *experiment.Suite
	benchErr   error
)

// suite returns the shared bench scenario (small scale so the full bench
// run stays under a minute; cmd/experiments regenerates the paper-scale
// numbers).
func suite(b *testing.B) *experiment.Suite {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiment.DefaultScenario()
		cfg.Topology.Transit = 40
		cfg.Topology.Stubs = 90
		cfg.Sites = 5
		cfg.VPsPerProject = 6
		cfg.RFDShare = 0.7
		cfg.CustomerOnlyDampers = 1
		benchSuite, benchErr = experiment.NewSuite(cfg, 2)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func benchRun(b *testing.B, iv time.Duration) *experiment.Run {
	b.Helper()
	run, err := suite(b).IntervalRunContext(context.Background(), iv)
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func benchInference(b *testing.B, iv time.Duration) (*core.Result, *core.Dataset) {
	b.Helper()
	res, ds, err := suite(b).InferenceContext(context.Background(), iv)
	if err != nil {
		b.Fatal(err)
	}
	return res, ds
}

// ---- Figure / table benches ----------------------------------------------

func BenchmarkFig2PenaltyTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig2PenaltyTrace(rfd.Cisco, time.Minute, time.Hour, 3*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Signature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig5Signature()
		if err != nil {
			b.Fatal(err)
		}
		if !res.RFDLabeled {
			b.Fatal("signature lost")
		}
	}
}

func BenchmarkFig6LinkSimilarity(b *testing.B) {
	run := benchRun(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig6LinkSimilarity(run); res.TotalLinks == 0 {
			b.Fatal("no links")
		}
	}
}

func BenchmarkFig7ProjectOverlap(b *testing.B) {
	run := benchRun(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig7ProjectOverlap(run); res.Union == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkFig8Propagation(b *testing.B) {
	run := benchRun(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := experiment.Fig8Propagation(run); res.Samples == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFig9Marginals(b *testing.B) {
	res, ds := benchInference(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fig := experiment.Fig9Marginals(res, ds); len(fig.Pictures) == 0 {
			b.Fatal("no archetypes")
		}
	}
}

func BenchmarkFig10BurstHistogram(b *testing.B) {
	run := benchRun(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig10BurstHistogram(run); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Scatter(b *testing.B) {
	res, _ := benchInference(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fig := experiment.Fig11Scatter(res); len(fig.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig12IntervalSweep(b *testing.B) {
	s := suite(b)
	ivs := []time.Duration{time.Minute, 10 * time.Minute}
	// Warm both campaigns and inferences outside the timer.
	for _, iv := range ivs {
		if _, _, err := s.InferenceContext(context.Background(), iv); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig12IntervalSweep(context.Background(), s, ivs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13RDeltaCDF(b *testing.B) {
	s := suite(b)
	ivs := []time.Duration{time.Minute}
	if _, err := s.IntervalRunContext(context.Background(), time.Minute); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig13RDeltaCDF(context.Background(), s, ivs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab2Categories(b *testing.B) {
	res, _ := benchInference(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := experiment.Tab2Categories(res); tab.Total == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTab3Divergence(b *testing.B) {
	run := benchRun(b, time.Minute)
	res, _ := benchInference(b, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := experiment.Tab3Divergence(run, res); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTab4PrecisionRecall(b *testing.B) {
	s := suite(b)
	if _, _, err := s.InferenceContext(context.Background(), time.Minute); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Tab4PrecisionRecallContext(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPilot2019 regenerates the August 2019 pilot (15/30/60-minute
// intervals; only tightened-legacy configurations trigger).
func BenchmarkPilot2019(b *testing.B) {
	cfg := experiment.DefaultScenario()
	cfg.Topology.Transit = 40
	cfg.Topology.Stubs = 90
	cfg.Sites = 4
	cfg.VPsPerProject = 5
	cfg.RFDShare = 0.7
	cfg.AggressiveShare = 0.5
	for i := 0; i < b.N; i++ {
		res, err := experiment.Pilot2019(context.Background(), cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkCampaignSimulation measures the full beacon-to-labels pipeline:
// a one-pair 1-minute campaign over the bench topology. It reports the
// speaker-to-speaker updates each campaign sends as updates/op, so the
// time per update stays comparable across topology sizes.
func BenchmarkCampaignSimulation(b *testing.B) {
	s := suite(b).Scenario()
	var updates uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := s.RunCampaignContext(context.Background(), experiment.IntervalCampaign(time.Minute, 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(run.Measurements) == 0 {
			b.Fatal("no measurements")
		}
		updates = run.UpdatesSent
	}
	b.ReportMetric(float64(updates), "updates/op")
}

// ---- Ablation benches ------------------------------------------------------

// benchDataset builds a mid-size planted tomography dataset directly.
func benchDataset(b *testing.B) *core.Dataset {
	b.Helper()
	rng := stats.NewRNG(9)
	dampers := map[bgp.ASN]bool{17: true, 42: true}
	var obs []core.PathObs
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(4)
		path := make([]bgp.ASN, 0, n)
		seen := map[bgp.ASN]bool{}
		positive := false
		for len(path) < n {
			a := bgp.ASN(rng.Intn(60) + 1)
			if seen[a] {
				continue
			}
			seen[a] = true
			path = append(path, a)
			if dampers[a] {
				positive = true
			}
		}
		obs = append(obs, core.PathObs{ASNs: path, Positive: positive})
	}
	ds, err := core.NewDataset(obs)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkAblationSamplers compares the two MCMC engines at equal sample
// counts: MH is cheap per sweep but mixes coordinate-wise, HMC pays for
// gradients but moves all coordinates jointly.
func BenchmarkAblationSamplers(b *testing.B) {
	ds := benchDataset(b)
	b.Run("mh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := core.RunMH(context.Background(), ds, core.Config{MH: core.MHConfig{Sweeps: 300, BurnIn: 100}}, stats.NewRNG(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			_ = c.AcceptanceRate()
		}
	})
	b.Run("hmc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := core.RunHMC(context.Background(), ds, core.Config{HMC: core.HMCConfig{Iterations: 300, BurnIn: 100}}, stats.NewRNG(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			_ = c.AcceptanceRate()
		}
	})
	// Report mixing quality: effective samples per retained sample.
	b.Run("ess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mh, err := core.RunMH(context.Background(), ds, core.Config{MH: core.MHConfig{Sweeps: 300, BurnIn: 100}}, stats.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			hmc, err := core.RunHMC(context.Background(), ds, core.Config{HMC: core.HMCConfig{Iterations: 300, BurnIn: 100}}, stats.NewRNG(2))
			if err != nil {
				b.Fatal(err)
			}
			i17, _ := ds.NodeIndex(17)
			b.ReportMetric(core.ESS(mh.Marginal(i17))/float64(mh.Len()), "mh-ess/sample")
			b.ReportMetric(core.ESS(hmc.Marginal(i17))/float64(hmc.Len()), "hmc-ess/sample")
		}
	})
}

// BenchmarkAblationPriors verifies the paper's claim that with BGP-scale
// data the prior barely matters: the flagged set is identical across
// priors, and the bench reports the damper's posterior mean under each.
func BenchmarkAblationPriors(b *testing.B) {
	ds := benchDataset(b)
	priors := map[string]core.Prior{
		"sparse":   core.SparsePrior,
		"uniform":  core.UniformPrior,
		"centered": core.SymmetricPrior,
	}
	for name, prior := range priors {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := core.RunMH(context.Background(), ds, core.Config{Prior: prior, MH: core.MHConfig{Sweeps: 400, BurnIn: 100}}, stats.NewRNG(3))
				if err != nil {
					b.Fatal(err)
				}
				i17, _ := ds.NodeIndex(17)
				b.ReportMetric(stats.Mean(c.Marginal(i17)), "damper-mean")
			}
		})
	}
}

// BenchmarkAblationLogSpace contrasts the log-space likelihood against the
// naive linear-space translation of Eq. 5 — which underflows to exactly 0
// on realistic datasets, destroying the acceptance ratios MH depends on.
func BenchmarkAblationLogSpace(b *testing.B) {
	ds := benchDataset(b)
	// A probability vector deep in the tail: each negative path contributes
	// ~1e-4 in linear space, and a few hundred of them multiply straight
	// past float64's smallest normal.
	p := make([]float64, ds.NumNodes())
	for i := range p {
		p[i] = 0.9
	}
	b.Run("log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if v := core.LogLik(ds, p); v > 0 {
				b.Fatal("positive log likelihood")
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		underflows := 0
		for i := 0; i < b.N; i++ {
			if core.LinearLik(ds, p) == 0 {
				underflows++
			}
		}
		b.ReportMetric(float64(underflows)/float64(b.N), "underflow-rate")
	})
}

// BenchmarkAblationLabeling sweeps the two labeling knobs the paper fixes
// by argument (minimum r-delta 5 min; >=90% of pairs) and reports how the
// number of RFD-labeled paths responds.
func BenchmarkAblationLabeling(b *testing.B) {
	run := benchRun(b, time.Minute)
	configs := map[string]label.Config{
		"paper":        {},
		"rdelta-2m":    {MinRDelta: 2 * time.Minute},
		"rdelta-10m":   {MinRDelta: 10 * time.Minute},
		"majority-50%": {RFDShare: 0.5},
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ms := label.LabelPathsContext(context.Background(), run.Entries, run.Schedules, cfg)
				rfdPaths := 0
				for _, m := range ms {
					if m.RFD {
						rfdPaths++
					}
				}
				b.ReportMetric(float64(rfdPaths), "rfd-paths")
			}
		})
	}
}

// pinpointDataset builds the AS-701 scenario: an inconsistent damper whose
// overall mean stays low (many undamped paths) but who is the only
// plausible cause on several damped paths.
func pinpointDataset(b *testing.B) *core.Dataset {
	b.Helper()
	var obs []core.PathObs
	for i := 0; i < 12; i++ {
		obs = append(obs, core.PathObs{ASNs: []bgp.ASN{bgp.ASN(100 + i), 701, bgp.ASN(200 + i)}, Positive: false})
	}
	for i := 0; i < 6; i++ {
		comp := bgp.ASN(300 + i)
		obs = append(obs, core.PathObs{ASNs: []bgp.ASN{comp, 701, bgp.ASN(400 + i)}, Positive: true})
		for k := 0; k < 15; k++ {
			obs = append(obs, core.PathObs{ASNs: []bgp.ASN{comp, bgp.ASN(500 + 20*i + k)}, Positive: false})
			obs = append(obs, core.PathObs{ASNs: []bgp.ASN{bgp.ASN(400 + i), bgp.ASN(1000 + 20*i + k)}, Positive: false})
		}
	}
	ds, err := core.NewDataset(obs)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkAblationPinpoint sweeps the Eq. 8 vote threshold on the AS-701
// scenario and reports how many ASes the inconsistency pass upgrades: too
// low over-flags, too high misses the inconsistent damper.
func BenchmarkAblationPinpoint(b *testing.B) {
	ds := pinpointDataset(b)
	for _, threshold := range []float64{0.6, 0.8, 0.95} {
		threshold := threshold
		b.Run(formatThreshold(threshold), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.InferContext(context.Background(), ds, core.Config{
					Seed:              7,
					MH:                core.MHConfig{Sweeps: 400, BurnIn: 100},
					DisableHMC:        true,
					PinpointThreshold: threshold,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Pinpointed)), "pinpointed")
			}
		})
	}
}

func formatThreshold(t float64) string {
	switch t {
	case 0.6:
		return "0.6"
	case 0.8:
		return "0.8-paper"
	default:
		return "0.95"
	}
}

// BenchmarkPublicInfer measures the end-user API on the quickstart dataset.
func BenchmarkPublicInfer(b *testing.B) {
	var obs []because.PathObservation
	paths := [][]because.ASN{
		{1, 7, 3}, {2, 7, 4}, {5, 7, 6}, {1, 7, 6}, {8, 7, 3},
		{1, 9, 3}, {2, 9, 4}, {5, 9, 6}, {8, 9, 10},
		{1, 2, 3}, {4, 5, 6}, {8, 10, 11}, {11, 12, 1}, {2, 4, 6},
	}
	for _, p := range paths {
		positive := false
		for _, a := range p {
			if a == 7 {
				positive = true
			}
		}
		obs = append(obs, because.PathObservation{Path: p, ShowsProperty: positive})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := because.Infer(obs, because.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Flagged()) == 0 {
			b.Fatal("damper lost")
		}
	}
}

// BenchmarkBeaconExpansion measures schedule expansion (pure computation).
func BenchmarkBeaconExpansion(b *testing.B) {
	sched := beacon.Schedule{
		Site: 65000, Prefix: bgp.MustPrefix("10.1.1.0/24"),
		UpdateInterval: time.Minute, BurstLen: 2 * time.Hour, BreakLen: 6 * time.Hour,
		Pairs: 8, Start: experiment.Start,
	}
	for i := 0; i < b.N; i++ {
		evs, err := sched.Events()
		if err != nil {
			b.Fatal(err)
		}
		if len(evs) == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkInfer measures the parallel multi-chain engine: 4 MH chains over
// the 1-minute campaign dataset, at 1 worker (sequential baseline) and at 4
// workers. On a 4+ core machine the workers=4 case should run ≥2x faster;
// by the engine's determinism guarantee both produce bit-identical results,
// so the speedup is free. (On fewer cores the pool degrades gracefully to
// the available parallelism.)
func BenchmarkInfer(b *testing.B) {
	run := benchRun(b, time.Minute)
	ds, err := run.Dataset()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("chains=4/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Seed:       42,
					Chains:     4,
					Workers:    workers,
					DisableHMC: true,
					MH:         core.MHConfig{Sweeps: 400, BurnIn: 100},
				}
				if _, err := core.InferContext(context.Background(), ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
