// Command experiments regenerates every table and figure of the paper's
// evaluation over the simulated measurement study. Each experiment prints
// the same rows/series the paper reports; EXPERIMENTS.md records how the
// shapes compare.
//
// Usage:
//
//	experiments [-seed N] [-pairs N] [-scale small|default] [-only fig12,tab4]
//	            [-workers N] [-metrics-addr :8080] [-log-level info] [-progress]
//
// -workers sizes the pool that fans out the per-interval campaigns of the
// multi-interval sweeps (Figure 12/13) and the sampler chains inside every
// inference (0 = all cores). All tables and figures are bit-identical at
// any worker count.
//
// Observability: -metrics-addr serves Prometheus metrics on /metrics (and
// pprof on /debug/pprof/) while the suite runs; -log-level enables
// structured logs on stderr (debug, info, warn, error; default off);
// -progress prints a per-experiment duration line on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"because/internal/experiment"
	"because/internal/obs"
	"because/internal/rfd"
)

type options struct {
	seed        uint64
	pairs       int
	workers     int
	scale       string
	only        string
	progress    bool
	metricsAddr string
	logLevel    string
}

func main() {
	var o options
	flag.Uint64Var(&o.seed, "seed", 2020, "scenario seed")
	flag.IntVar(&o.pairs, "pairs", 3, "Burst-Break pairs per campaign")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size for campaign/chain fan-out (0 = all cores, 1 = sequential); output is identical at any setting")
	flag.StringVar(&o.scale, "scale", "default", "scenario scale: small or default")
	flag.StringVar(&o.only, "only", "", "comma-separated experiment ids (default: all)")
	flag.BoolVar(&o.progress, "progress", false, "print per-experiment durations on stderr")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and pprof on this address (e.g. :8080)")
	flag.StringVar(&o.logLevel, "log-level", "", "structured log level on stderr: debug, info, warn, error (default: off)")
	flag.Parse()

	observer, err := obs.NewLeveled(o.logLevel, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if o.metricsAddr != "" {
		srv, err := obs.Serve(o.metricsAddr, observer.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: metrics on %s/metrics\n", srv.URL())
	}
	if err := run(o, observer); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(o options, observer *obs.Observer) error {
	seed, pairs, scale, only := o.seed, o.pairs, o.scale, o.only
	cfg := experiment.DefaultScenario()
	cfg.Seed = seed
	cfg.Workers = o.workers
	switch scale {
	case "default":
	case "small":
		cfg.Topology.Transit = 40
		cfg.Topology.Stubs = 90
		cfg.Sites = 4
		cfg.VPsPerProject = 4
		cfg.RFDShare = 0.45
		cfg.CustomerOnlyDampers = 1
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}
	suite, err := experiment.NewSuite(cfg, pairs)
	if err != nil {
		return err
	}
	suite.Scenario().Obs = observer

	want := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	type exp struct {
		id string
		fn func() (experiment.Report, error)
	}
	experiments := []exp{
		{"fig2", func() (experiment.Report, error) {
			res, err := experiment.Fig2PenaltyTrace(rfd.Cisco, time.Minute, time.Hour, 3*time.Hour)
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
		{"fig5", func() (experiment.Report, error) {
			res, err := experiment.Fig5Signature()
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
		{"fig6", func() (experiment.Report, error) {
			run, err := suite.IntervalRun(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			return experiment.Fig6LinkSimilarity(run).Report(), nil
		}},
		{"fig7", func() (experiment.Report, error) {
			run, err := suite.IntervalRun(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			return experiment.Fig7ProjectOverlap(run).Report(), nil
		}},
		{"fig8", func() (experiment.Report, error) {
			run, err := suite.IntervalRun(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			return experiment.Fig8Propagation(run).Report(), nil
		}},
		{"fig9", func() (experiment.Report, error) {
			res, ds, err := suite.Inference(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			return experiment.Fig9Marginals(res, ds).Report(), nil
		}},
		{"fig10", func() (experiment.Report, error) {
			run, err := suite.IntervalRun(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			res, err := experiment.Fig10BurstHistogram(run)
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
		{"fig11", func() (experiment.Report, error) {
			res, _, err := suite.Inference(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			return experiment.Fig11Scatter(res).Report(), nil
		}},
		{"tab2", func() (experiment.Report, error) {
			res, _, err := suite.Inference(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			return experiment.Tab2Categories(res).Report(), nil
		}},
		{"fig12", func() (experiment.Report, error) {
			res, err := experiment.Fig12IntervalSweep(suite, experiment.PaperIntervals)
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
		{"fig13", func() (experiment.Report, error) {
			res, err := experiment.Fig13RDeltaCDF(suite, experiment.PaperIntervals)
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
		{"tab3", func() (experiment.Report, error) {
			run, err := suite.IntervalRun(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			res, _, err := suite.Inference(time.Minute)
			if err != nil {
				return experiment.Report{}, err
			}
			return experiment.Tab3Divergence(run, res).Report(), nil
		}},
		{"tab4", func() (experiment.Report, error) {
			res, err := experiment.Tab4PrecisionRecall(suite)
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
		{"pilot", func() (experiment.Report, error) {
			pcfg := cfg
			pcfg.AggressiveShare = 0.4
			res, err := experiment.Pilot2019(pcfg, pairs)
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
		{"appendixA", func() (experiment.Report, error) {
			ecfg := cfg
			ecfg.BackgroundPrefixes = 80
			res, err := experiment.AppendixAEthics(ecfg, pairs)
			if err != nil {
				return experiment.Report{}, err
			}
			return res.Report(), nil
		}},
	}

	start := time.Now()
	for _, e := range experiments {
		if !selected(e.id) {
			continue
		}
		expStart := time.Now()
		rep, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if o.progress {
			fmt.Fprintf(os.Stderr, "experiments: %s done in %s\n", e.id, time.Since(expStart).Round(time.Millisecond))
		}
		fmt.Println(rep)
	}
	fmt.Printf("done in %v (seed=%d scale=%s pairs=%d)\n", time.Since(start).Round(time.Millisecond), seed, scale, pairs)
	return nil
}
