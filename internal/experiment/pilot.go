package experiment

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// PilotRow is one update interval of the August 2019 pilot.
type PilotRow struct {
	Interval time.Duration
	// RFDPaths counts paths labeled RFD at this interval; Paths is the
	// total labeled.
	RFDPaths, Paths int
}

// PilotResult reproduces the paper's August 2019 pilot (§ 4.3): beacons at
// 15/30/60-minute update intervals. Vendor-default and recommended
// parameters damp none of these, so only networks running tightened legacy
// configurations (long half-life) show measurable RFD — and only at the
// fastest (15-minute) interval.
type PilotResult struct {
	Rows []PilotRow
}

// Pilot2019 runs the pilot campaign over a scenario variant where a share
// of the dampers carries the tightened-legacy configuration.
func Pilot2019(ctx context.Context, cfg ScenarioConfig, pairs int) (*PilotResult, error) {
	if cfg.AggressiveShare == 0 {
		cfg.AggressiveShare = 0.4
	}
	if pairs == 0 {
		pairs = 2
	}
	scenario, err := NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	res := &PilotResult{}
	for _, iv := range []time.Duration{15 * time.Minute, 30 * time.Minute, 60 * time.Minute} {
		c := IntervalCampaign(iv, pairs)
		// Long bursts so even 60-minute intervals fit several updates.
		c.BurstLen = 4 * time.Hour
		c.BreakLen = 6 * time.Hour
		run, err := scenario.RunCampaignContext(ctx, c)
		if err != nil {
			return nil, err
		}
		row := PilotRow{Interval: iv, Paths: len(run.Measurements)}
		for _, m := range run.Measurements {
			if m.RFD {
				row.RFDPaths++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Interval < res.Rows[j].Interval })
	return res, nil
}

// Report renders the pilot summary.
func (r *PilotResult) Report() Report {
	rep := Report{ID: "pilot", Title: "August 2019 pilot: slow update intervals (15/30/60 min)"}
	for _, row := range r.Rows {
		rep.Lines = append(rep.Lines, fmt.Sprintf("interval %-5s RFD paths %d/%d",
			row.Interval, row.RFDPaths, row.Paths))
	}
	rep.Lines = append(rep.Lines,
		"only the fastest interval provokes measurable RFD (tightened legacy configs)")
	return rep
}
