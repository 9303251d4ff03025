package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"because/internal/bgp"
)

// AppendixAResult quantifies the beacons' footprint on the control plane
// (the paper's ethics appendix: the beacons caused 0.48–0.54% of all IPv4
// updates seen at the collectors, less than many ordinarily noisy
// prefixes).
type AppendixAResult struct {
	BeaconUpdates, BackgroundUpdates int
	// Share is BeaconUpdates / (BeaconUpdates + BackgroundUpdates).
	Share float64
	// NoisiestBackground is the update count of the most active background
	// prefix; the paper found prefixes 3–17x noisier than a beacon.
	NoisiestBackground int
	// PerBeaconPrefix is the mean updates per beacon prefix.
	PerBeaconPrefix float64
}

// AppendixAEthics runs a 1-minute campaign with background churn enabled
// and accounts for the beacons' share of archived updates.
func AppendixAEthics(ctx context.Context, cfg ScenarioConfig, pairs int) (*AppendixAResult, error) {
	if cfg.BackgroundPrefixes == 0 {
		cfg.BackgroundPrefixes = 60
	}
	if cfg.ChurnMeanInterval == 0 {
		cfg.ChurnMeanInterval = 20 * time.Minute
	}
	if pairs == 0 {
		pairs = 2
	}
	scenario, err := NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	run, err := scenario.RunCampaignContext(ctx, IntervalCampaign(time.Minute, pairs))
	if err != nil {
		return nil, err
	}
	res := &AppendixAResult{}
	perPrefix := make(map[bgp.Prefix]int)
	beaconPrefixes := make(map[bgp.Prefix]bool)
	for _, sched := range run.Schedules {
		beaconPrefixes[sched.Prefix] = true
	}
	for _, e := range run.Entries {
		for _, p := range append(append([]bgp.Prefix(nil), e.Update.NLRI...), e.Update.Withdrawn...) {
			perPrefix[p]++
			if beaconPrefixes[p] {
				res.BeaconUpdates++
			} else {
				res.BackgroundUpdates++
			}
		}
	}
	if total := res.BeaconUpdates + res.BackgroundUpdates; total > 0 {
		res.Share = float64(res.BeaconUpdates) / float64(total)
	}
	for p, n := range perPrefix {
		if !beaconPrefixes[p] && n > res.NoisiestBackground {
			res.NoisiestBackground = n
		}
	}
	if len(beaconPrefixes) > 0 {
		res.PerBeaconPrefix = float64(res.BeaconUpdates) / float64(len(beaconPrefixes))
	}
	return res, nil
}

// Report renders the appendix.
func (r *AppendixAResult) Report() Report {
	rep := Report{ID: "appendixA", Title: "Ethics accounting: beacon share of control-plane updates"}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("beacon updates:     %d (%.1f%% of all archived updates)", r.BeaconUpdates, 100*r.Share),
		fmt.Sprintf("background updates: %d", r.BackgroundUpdates),
		fmt.Sprintf("mean updates per beacon prefix: %.0f; noisiest background prefix: %d",
			r.PerBeaconPrefix, r.NoisiestBackground),
		strings.TrimSpace(`
the paper's beacons were 0.48-0.54% of all IPv4 updates; in the small
simulated world the share is higher because the background is thinner,
but the accounting machinery is identical`),
	)
	return rep
}
