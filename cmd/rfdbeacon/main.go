// Command rfdbeacon runs a complete beacon measurement campaign over the
// simulated Internet and archives the vantage-point feeds as MRT files —
// one per collector project, the same format the real RIS/RouteViews/
// Isolario archives use. The dumps can be inspected with examples/mrtinspect
// or fed back through the labeling pipeline.
//
// Usage:
//
//	rfdbeacon [-out DIR] [-interval 1m] [-pairs 3] [-seed 2020]
//	          [-workers N] [-metrics-addr :8080] [-log-level info] [-progress]
//
// -workers writes the per-project MRT archives concurrently (0 = all
// cores); the produced files are byte-identical at any worker count.
//
// Observability: -metrics-addr serves Prometheus metrics on /metrics (and
// pprof on /debug/pprof/) while the campaign runs; -log-level enables
// structured logs on stderr (debug, info, warn, error; default off);
// -progress prints per-stage timing lines on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"because/internal/collector"
	"because/internal/experiment"
	"because/internal/label"
	"because/internal/obs"
	"because/internal/par"
	"because/internal/topology"
)

type options struct {
	out         string
	interval    time.Duration
	pairs       int
	seed        uint64
	workers     int
	topoFile    string
	progress    bool
	metricsAddr string
	logLevel    string
}

func main() {
	var o options
	flag.StringVar(&o.out, "out", ".", "output directory for MRT dumps")
	flag.DurationVar(&o.interval, "interval", time.Minute, "beacon update interval during Bursts")
	flag.IntVar(&o.pairs, "pairs", 3, "number of Burst-Break pairs")
	flag.Uint64Var(&o.seed, "seed", 2020, "scenario seed")
	flag.IntVar(&o.workers, "workers", 0, "write the per-project MRT archives on this many workers (0 = all cores); output files are identical at any setting")
	flag.StringVar(&o.topoFile, "topology", "", "CAIDA as-rel file to run over (default: generate synthetically)")
	flag.BoolVar(&o.progress, "progress", false, "print per-stage timing lines on stderr")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and pprof on this address (e.g. :8080)")
	flag.StringVar(&o.logLevel, "log-level", "", "structured log level on stderr: debug, info, warn, error (default: off)")
	flag.Parse()

	observer, err := obs.NewLeveled(o.logLevel, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfdbeacon:", err)
		os.Exit(2)
	}
	if o.metricsAddr != "" {
		srv, err := obs.Serve(o.metricsAddr, observer.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfdbeacon:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "rfdbeacon: metrics on %s/metrics\n", srv.URL())
	}
	if err := run(context.Background(), o, observer); err != nil {
		fmt.Fprintln(os.Stderr, "rfdbeacon:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, observer *obs.Observer) error {
	stage := func(name string, start time.Time) {
		if o.progress {
			fmt.Fprintf(os.Stderr, "rfdbeacon: %s done in %s\n", name, time.Since(start).Round(time.Millisecond))
		}
	}

	setup := time.Now()
	cfg := experiment.DefaultScenario()
	cfg.Seed = o.seed
	var scenario *experiment.Scenario
	var err error
	if o.topoFile != "" {
		f, ferr := os.Open(o.topoFile)
		if ferr != nil {
			return ferr
		}
		g, gerr := topology.ReadCAIDA(f)
		f.Close()
		if gerr != nil {
			return gerr
		}
		scenario, err = experiment.NewScenarioFromGraph(cfg, g)
	} else {
		scenario, err = experiment.NewScenario(cfg)
	}
	if err != nil {
		return err
	}
	scenario.Obs = observer
	stage("scenario setup", setup)
	fmt.Printf("topology: %d ASes, %d links; %d beacon sites, %d vantage points, %d RFD deployments\n",
		scenario.Graph.Len(), scenario.Graph.Links(), len(scenario.Sites), len(scenario.VPs),
		len(scenario.Deployments))

	campaignStart := time.Now()
	run, err := scenario.RunCampaignContext(ctx, experiment.IntervalCampaign(o.interval, o.pairs))
	if err != nil {
		return err
	}
	stage("campaign", campaignStart)
	fmt.Printf("campaign %s: %d BGP updates sent, %d entries archived, %d labeled paths\n",
		run.Campaign.Name, run.UpdatesSent, len(run.Entries), len(run.Measurements))

	archiveStart := time.Now()
	// One MRT dump per project, like the real archives. The projects'
	// files are independent, so they are written on the worker pool;
	// summary lines are collected per slot and printed in project order so
	// the output does not depend on scheduling.
	byProject := make(map[collector.Project][]collector.Entry)
	for _, e := range run.Entries {
		byProject[e.VP.Project] = append(byProject[e.VP.Project], e)
	}
	pool := par.NewGroupContext(ctx, o.workers, observer, "archive")
	wroteLines := make([]string, len(collector.Projects))
	for i, project := range collector.Projects {
		pool.Go(func() error {
			entries := byProject[project]
			name := filepath.Join(o.out, fmt.Sprintf("updates.%s.%s.mrt", project, run.Campaign.Name))
			f, err := os.Create(name)
			if err != nil {
				return err
			}
			if err := collector.WriteMRT(f, entries); err != nil {
				f.Close()
				return fmt.Errorf("writing %s: %w", name, err)
			}
			if err := f.Close(); err != nil {
				return err
			}
			wroteLines[i] = fmt.Sprintf("wrote %s: %d records", name, len(entries))
			return nil
		})
	}
	if err := pool.Wait(); err != nil {
		return err
	}
	for _, line := range wroteLines {
		fmt.Println(line)
	}

	// A final RIB snapshot, reconstructed from the updates like real
	// archive tooling does.
	ribName := filepath.Join(o.out, fmt.Sprintf("rib.%s.mrt", run.Campaign.Name))
	f, err := os.Create(ribName)
	if err != nil {
		return err
	}
	snapAt := run.Entries[len(run.Entries)-1].Exported.Add(time.Minute)
	if err := collector.WriteRIB(f, run.Entries, snapAt); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", ribName, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (snapshot at %s)\n", ribName, snapAt.Format(time.RFC3339))

	// The labeled path dataset, ready for cmd/becausectl.
	pathsName := filepath.Join(o.out, fmt.Sprintf("paths.%s.json", run.Campaign.Name))
	pf, err := os.Create(pathsName)
	if err != nil {
		return err
	}
	if err := label.WriteJSON(pf, run.Measurements); err != nil {
		pf.Close()
		return fmt.Errorf("writing %s: %w", pathsName, err)
	}
	if err := pf.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (feed it to: go run ./cmd/becausectl -in %s)\n", pathsName, pathsName)
	stage("archiving", archiveStart)

	rfdPaths := 0
	for _, m := range run.Measurements {
		if m.RFD {
			rfdPaths++
		}
	}
	fmt.Printf("labeling: %d/%d paths show the RFD signature\n", rfdPaths, len(run.Measurements))
	return nil
}
