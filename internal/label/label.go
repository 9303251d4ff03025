// Package label implements the paper's path-labeling stage (§ 4.2): it
// searches archived vantage-point feeds for the RFD signature and labels
// each observed AS path, per Burst-Break pair, as damped or not.
//
// The signature (Figure 5) is a re-advertisement: after the Burst ends with
// an announcement, a path that crossed a damping AS stays quiet and then
// re-appears minutes later, when the penalty decays below the reuse
// threshold. An update counts as a re-advertisement only if the time since
// the final Burst update (r-delta) exceeds the normal propagation time —
// 5 minutes by default, which cleanly separates RFD from MRAI and
// propagation jitter. A path is labeled RFD when at least 90% of its
// Burst-Break pairs match, absorbing infrastructure noise such as session
// resets.
package label

import (
	"context"
	"fmt"
	"sort"
	"time"

	"because/internal/beacon"
	"because/internal/bgp"
	"because/internal/collector"
	"because/internal/obs"
)

// Config tunes the labeling rules; zero values select the paper's settings.
type Config struct {
	// MinRDelta is the minimum re-advertisement delta (default 5 min).
	MinRDelta time.Duration
	// PropagationAllowance is how long after the nominal Burst end an
	// update can still be attributed to the Burst (propagation + MRAI +
	// collector export batching; default 2 min).
	PropagationAllowance time.Duration
	// RFDShare is the minimum share of matching pairs (default 0.9).
	RFDShare float64
	// Obs attaches metrics and logging: paths labeled, RFD signatures
	// found, Burst-Break pairs classified, plus the stage span. Nil (the
	// default) disables instrumentation.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.MinRDelta == 0 {
		c.MinRDelta = 5 * time.Minute
	}
	if c.PropagationAllowance == 0 {
		c.PropagationAllowance = 2 * time.Minute
	}
	if c.RFDShare == 0 {
		c.RFDShare = 0.9
	}
	return c
}

// Measurement is one labeled path: a (vantage point, prefix, AS path)
// triple with its per-pair RFD evidence.
type Measurement struct {
	VP     collector.VantagePoint
	Prefix bgp.Prefix
	// Site is the beacon origin AS.
	Site bgp.ASN
	// Path is the cleaned AS path, vantage point first, origin last.
	Path []bgp.ASN
	// RFD is the final label.
	RFD bool
	// PairsTotal and PairsRFD count the Burst-Break pairs attributed to
	// this path and those matching the signature.
	PairsTotal, PairsRFD int
	// RDeltas holds, for each matching pair, the re-advertisement delta
	// measured from the Burst end (the Figure 13 quantity).
	RDeltas []time.Duration
}

// TomographyPath returns the ASes usable as tomography unknowns: the full
// path minus the origin (a beacon never receives — and so can never damp —
// its own prefix).
func (m Measurement) TomographyPath() []bgp.ASN {
	if len(m.Path) == 0 {
		return nil
	}
	return m.Path[:len(m.Path)-1]
}

// Key returns a stable identity for the measurement.
func (m Measurement) Key() string {
	return fmt.Sprintf("%s|%s|%s", m.VP.Project, m.Prefix, bgp.PathKey(m.Path))
}

// pathAgg accumulates per-pair evidence for one (vp, path).
type pathAgg struct {
	m Measurement
}

// LabelPaths analyses collector entries against the beacon schedules and
// returns one Measurement per (vantage point, prefix, cleaned path)
// actually observed. Anchor schedules are skipped: they are the propagation
// control, not an RFD probe.
func LabelPaths(entries []collector.Entry, schedules []beacon.Schedule, cfg Config) []Measurement {
	return LabelPathsContext(context.Background(), entries, schedules, cfg)
}

// LabelPathsContext is LabelPaths under a context: when ctx carries a
// trace (obs.ContextWithSpan), the labeling stage records a "label" span
// with entry/path counts into it. Labeling itself never blocks, so the
// context is an observability position, not a cancellation point.
func LabelPathsContext(ctx context.Context, entries []collector.Entry, schedules []beacon.Schedule, cfg Config) []Measurement {
	cfg = cfg.withDefaults()
	span, _ := cfg.Obs.StartSpan(ctx, "label")
	defer span.End()

	// Index entries by (prefix, vp).
	type feedKey struct {
		prefix bgp.Prefix
		vp     collector.VantagePoint
	}
	feeds := make(map[feedKey][]collector.Entry)
	for _, e := range entries {
		for _, p := range e.Update.NLRI {
			feeds[feedKey{p, e.VP}] = append(feeds[feedKey{p, e.VP}], e)
		}
		for _, p := range e.Update.Withdrawn {
			feeds[feedKey{p, e.VP}] = append(feeds[feedKey{p, e.VP}], e)
		}
	}
	for k := range feeds {
		es := feeds[k]
		sort.SliceStable(es, func(i, j int) bool { return es[i].Exported.Before(es[j].Exported) })
		feeds[k] = es
	}

	var out []Measurement
	var keys []feedKey
	for k := range feeds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.prefix != b.prefix {
			return a.prefix.String() < b.prefix.String()
		}
		if a.vp.AS != b.vp.AS {
			return a.vp.AS < b.vp.AS
		}
		return a.vp.Project < b.vp.Project
	})

	for _, sched := range schedules {
		if sched.IsAnchor() {
			continue
		}
		for _, k := range keys {
			if k.prefix != sched.Prefix {
				continue
			}
			ms := labelFeed(feeds[k], sched, k.vp, cfg)
			out = append(out, ms...)
		}
	}
	if cfg.Obs != nil {
		rfdPaths, pairs := 0, 0
		for _, m := range out {
			pairs += m.PairsTotal
			if m.RFD {
				rfdPaths++
			}
		}
		cfg.Obs.Counter(obs.MetricLabelPaths).Add(uint64(len(out)))
		cfg.Obs.Counter(obs.MetricLabelRFDPaths).Add(uint64(rfdPaths))
		cfg.Obs.Counter(obs.MetricLabelPairs).Add(uint64(pairs))
		cfg.Obs.Log(obs.LevelInfo, "labeling done",
			"entries", len(entries), "paths", len(out), "rfd_paths", rfdPaths, "pairs", pairs)
	}
	span.SetAttr("entries", len(entries))
	span.SetAttr("paths", len(out))
	return out
}

// labelFeed classifies every Burst-Break pair of one vantage point's view
// of one beacon prefix, grouping evidence per observed path.
func labelFeed(feed []collector.Entry, sched beacon.Schedule, vp collector.VantagePoint, cfg Config) []Measurement {
	aggs := make(map[string]*pathAgg)
	var order []string

	for pair := 0; pair < sched.Pairs; pair++ {
		burstStart, burstEnd, breakEnd := sched.PairWindow(pair)
		lastBurstCutoff := burstEnd.Add(cfg.PropagationAllowance)

		// Entries belonging to this pair window.
		var pairEntries []collector.Entry
		for _, e := range feed {
			if !e.Exported.Before(burstStart) && e.Exported.Before(breakEnd) {
				pairEntries = append(pairEntries, e)
			}
		}
		if len(pairEntries) == 0 {
			continue // no visibility this pair (session reset etc.)
		}

		// The path for this pair: cleaned path of the last announcement.
		var path []bgp.ASN
		for i := len(pairEntries) - 1; i >= 0; i-- {
			if !pairEntries[i].Update.IsWithdrawalOnly() {
				p := pairEntries[i].Update.ASPath.Clean()
				if !pairEntries[i].Update.ASPath.HasLoop() {
					path = p
				}
				break
			}
		}
		if path == nil {
			continue // nothing usable (only withdrawals, or looped path)
		}

		// Split into Burst-attributed and Break-observed updates.
		var lastBurst *collector.Entry
		var readv *collector.Entry
		for i := range pairEntries {
			e := &pairEntries[i]
			if e.Exported.Before(lastBurstCutoff) {
				lastBurst = e
				continue
			}
			if !e.Update.IsWithdrawalOnly() && readv == nil {
				readv = e
			}
		}

		isRFD := false
		var rdelta time.Duration
		if readv != nil {
			ref := burstStart
			if lastBurst != nil {
				ref = lastBurst.Exported
			}
			if readv.Exported.Sub(ref) >= cfg.MinRDelta {
				isRFD = true
				rdelta = readv.Exported.Sub(burstEnd)
			}
		}

		key := bgp.PathKey(path)
		agg := aggs[key]
		if agg == nil {
			agg = &pathAgg{m: Measurement{
				VP:     vp,
				Prefix: sched.Prefix,
				Site:   sched.Site,
				Path:   path,
			}}
			aggs[key] = agg
			order = append(order, key)
		}
		agg.m.PairsTotal++
		if isRFD {
			agg.m.PairsRFD++
			agg.m.RDeltas = append(agg.m.RDeltas, rdelta)
		}
	}

	var out []Measurement
	for _, key := range order {
		m := aggs[key].m
		m.RFD = float64(m.PairsRFD) >= cfg.RFDShare*float64(m.PairsTotal) && m.PairsTotal > 0 && m.PairsRFD > 0
		out = append(out, m)
	}
	return out
}

// PropagationSample is one anchor-prefix propagation observation: how long
// a beacon event took to appear in a vantage point's exported feed.
type PropagationSample struct {
	VP    collector.VantagePoint
	Delta time.Duration
}

// PropagationDeltas extracts Figure-8 style propagation measurements from
// anchor prefixes: for every anchor announcement, the delta between the
// beacon event time (decoded from the aggregator attribute) and the
// export timestamp of its first appearance at each vantage point.
func PropagationDeltas(entries []collector.Entry, schedules []beacon.Schedule) []PropagationSample {
	anchors := make(map[bgp.Prefix]bool)
	for _, s := range schedules {
		if s.IsAnchor() {
			anchors[s.Prefix] = true
		}
	}
	type seenKey struct {
		vp     collector.VantagePoint
		prefix bgp.Prefix
		ts     uint32
	}
	seen := make(map[seenKey]bool)
	var out []PropagationSample
	for _, e := range entries {
		if e.Update.IsWithdrawalOnly() || e.Update.Aggregator == nil {
			continue
		}
		for _, p := range e.Update.NLRI {
			if !anchors[p] {
				continue
			}
			k := seenKey{e.VP, p, e.Update.Aggregator.ID}
			if seen[k] {
				continue // only the first arrival counts
			}
			seen[k] = true
			sent := beacon.DecodeTimestamp(e.Update.Aggregator.ID)
			out = append(out, PropagationSample{VP: e.VP, Delta: e.Exported.Sub(sent)})
		}
	}
	return out
}
