package label

import (
	"bytes"
	"context"
	"testing"
	"time"

	"because/internal/beacon"
	"because/internal/bgp"
	"because/internal/collector"
	"because/internal/netsim"
	"because/internal/rfd"
	"because/internal/router"
	"because/internal/stats"
	"because/internal/topology"
)

var (
	t0     = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	pfx    = bgp.MustPrefix("10.1.1.0/24")
	anchor = bgp.MustPrefix("10.1.0.0/24")
	vpRIS  = collector.VantagePoint{AS: 1, Project: collector.RIS}
)

func testSchedule(pairs int) beacon.Schedule {
	return beacon.Schedule{
		Site:           3,
		Prefix:         pfx,
		UpdateInterval: time.Minute,
		BurstLen:       30 * time.Minute,
		BreakLen:       90 * time.Minute,
		Pairs:          pairs,
		Start:          t0,
	}
}

// seqPath builds a single-sequence path from the given ASNs (origin last).
func seqPath(asns ...bgp.ASN) bgp.Path {
	return bgp.Path{Segments: []bgp.Segment{{Type: bgp.SegSequence, ASNs: asns}}}
}

// announceAt builds a synthetic collector entry.
func announceAt(at time.Time, path ...bgp.ASN) collector.Entry {
	return collector.Entry{
		VP:       vpRIS,
		Received: at,
		Exported: at,
		Update: &bgp.Update{
			ASPath:     seqPath(path...),
			NLRI:       []bgp.Prefix{pfx},
			Aggregator: &bgp.Aggregator{AS: path[len(path)-1], ID: beacon.EncodeTimestamp(at)},
		},
	}
}

func withdrawAt(at time.Time) collector.Entry {
	return collector.Entry{
		VP:       vpRIS,
		Received: at,
		Exported: at,
		Update:   &bgp.Update{Withdrawn: []bgp.Prefix{pfx}},
	}
}

// burstTracking emits announce/withdraw pairs that track the burst closely
// (a non-RFD feed) for pair i of sched.
func burstTracking(sched beacon.Schedule, pair int) []collector.Entry {
	start, end, _ := sched.PairWindow(pair)
	var out []collector.Entry
	for at := start; !at.After(end); at = at.Add(2 * sched.UpdateInterval) {
		out = append(out, withdrawAt(at.Add(10*time.Second)))
		out = append(out, announceAt(at.Add(sched.UpdateInterval).Add(10*time.Second), 1, 2, 3))
	}
	return out
}

// burstDamped emits a damped pattern: a few updates early in the burst,
// silence, then a re-advertisement rdelta after the burst end.
func burstDamped(sched beacon.Schedule, pair int, rdelta time.Duration) []collector.Entry {
	start, end, _ := sched.PairWindow(pair)
	return []collector.Entry{
		withdrawAt(start.Add(10 * time.Second)),
		announceAt(start.Add(sched.UpdateInterval).Add(10*time.Second), 1, 2, 3),
		withdrawAt(start.Add(2 * sched.UpdateInterval).Add(10 * time.Second)),
		announceAt(end.Add(rdelta), 1, 2, 3),
	}
}

func TestNonRFDFeed(t *testing.T) {
	sched := testSchedule(3)
	var entries []collector.Entry
	for p := 0; p < 3; p++ {
		entries = append(entries, burstTracking(sched, p)...)
	}
	ms := LabelPathsContext(context.Background(), entries, []beacon.Schedule{sched}, Config{})
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	m := ms[0]
	if m.RFD {
		t.Error("tracking feed labeled RFD")
	}
	if m.PairsTotal != 3 || m.PairsRFD != 0 {
		t.Errorf("pairs = %d/%d", m.PairsRFD, m.PairsTotal)
	}
	if bgp.PathKey(m.Path) != "1 2 3" {
		t.Errorf("path = %v", m.Path)
	}
}

func TestRFDFeed(t *testing.T) {
	sched := testSchedule(3)
	var entries []collector.Entry
	for p := 0; p < 3; p++ {
		entries = append(entries, burstDamped(sched, p, 25*time.Minute)...)
	}
	ms := LabelPathsContext(context.Background(), entries, []beacon.Schedule{sched}, Config{})
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	m := ms[0]
	if !m.RFD {
		t.Fatalf("damped feed not labeled RFD: %+v", m)
	}
	if m.PairsRFD != 3 {
		t.Errorf("pairsRFD = %d", m.PairsRFD)
	}
	if len(m.RDeltas) != 3 {
		t.Fatalf("rdeltas = %v", m.RDeltas)
	}
	for _, d := range m.RDeltas {
		if d != 25*time.Minute {
			t.Errorf("rdelta = %v, want 25m", d)
		}
	}
}

func TestNinetyPercentRule(t *testing.T) {
	sched := testSchedule(10)
	build := func(rfdPairs int) []collector.Entry {
		var entries []collector.Entry
		for p := 0; p < 10; p++ {
			if p < rfdPairs {
				entries = append(entries, burstDamped(sched, p, 20*time.Minute)...)
			} else {
				entries = append(entries, burstTracking(sched, p)...)
			}
		}
		return entries
	}
	// 8/10 matching: below the 90% bar.
	ms := LabelPathsContext(context.Background(), build(8), []beacon.Schedule{sched}, Config{})
	if len(ms) != 1 || ms[0].RFD {
		t.Errorf("8/10 labeled RFD: %+v", ms)
	}
	// 9/10 matching: at the bar.
	ms = LabelPathsContext(context.Background(), build(9), []beacon.Schedule{sched}, Config{})
	if len(ms) != 1 || !ms[0].RFD {
		t.Errorf("9/10 not labeled RFD: %+v", ms)
	}
}

func TestShortReadvertisementIsNotRFD(t *testing.T) {
	// A re-announcement 3 minutes after burst end (< MinRDelta relative to
	// the last burst update) must not match: that is MRAI/propagation.
	sched := testSchedule(2)
	var entries []collector.Entry
	for p := 0; p < 2; p++ {
		start, end, _ := sched.PairWindow(p)
		entries = append(entries,
			withdrawAt(start.Add(10*time.Second)),
			announceAt(end.Add(30*time.Second), 1, 2, 3),               // last burst update, slightly delayed
			announceAt(end.Add(3*time.Minute+30*time.Second), 1, 2, 3), // 3 min later
		)
	}
	ms := LabelPathsContext(context.Background(), entries, []beacon.Schedule{sched}, Config{})
	if len(ms) != 1 || ms[0].RFD {
		t.Errorf("short gap labeled RFD: %+v", ms)
	}
}

func TestEmptyPairsAreSkipped(t *testing.T) {
	sched := testSchedule(4)
	// Evidence only in pairs 0 and 1 (session reset afterwards).
	var entries []collector.Entry
	entries = append(entries, burstDamped(sched, 0, 20*time.Minute)...)
	entries = append(entries, burstDamped(sched, 1, 20*time.Minute)...)
	ms := LabelPathsContext(context.Background(), entries, []beacon.Schedule{sched}, Config{})
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].PairsTotal != 2 {
		t.Errorf("pairs total = %d, want 2 (empty pairs skipped)", ms[0].PairsTotal)
	}
	if !ms[0].RFD {
		t.Error("2/2 matching pairs should label RFD")
	}
}

func TestPrependingCleaned(t *testing.T) {
	sched := testSchedule(1)
	start, _, _ := sched.PairWindow(0)
	entries := []collector.Entry{
		announceAt(start.Add(time.Minute), 1, 2, 2, 2, 3),
	}
	ms := LabelPathsContext(context.Background(), entries, []beacon.Schedule{sched}, Config{})
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if bgp.PathKey(ms[0].Path) != "1 2 3" {
		t.Errorf("prepending survived: %v", ms[0].Path)
	}
}

func TestTomographyPathDropsOrigin(t *testing.T) {
	m := Measurement{Path: []bgp.ASN{1, 2, 3}}
	got := m.TomographyPath()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("TomographyPath = %v", got)
	}
	if (Measurement{}).TomographyPath() != nil {
		t.Error("empty path should give nil")
	}
}

func TestAnchorSchedulesSkipped(t *testing.T) {
	anchorSched := beacon.Schedule{
		Site: 3, Prefix: anchor, BurstLen: 2 * time.Hour, BreakLen: 2 * time.Hour,
		Pairs: 1, Start: t0,
	}
	entries := []collector.Entry{{
		VP: vpRIS, Received: t0, Exported: t0,
		Update: &bgp.Update{ASPath: seqPath(1, 2, 3), NLRI: []bgp.Prefix{anchor}},
	}}
	ms := LabelPathsContext(context.Background(), entries, []beacon.Schedule{anchorSched}, Config{})
	if len(ms) != 0 {
		t.Errorf("anchor produced measurements: %v", ms)
	}
}

func TestPropagationDeltas(t *testing.T) {
	anchorSched := beacon.Schedule{
		Site: 3, Prefix: anchor, BurstLen: 2 * time.Hour, BreakLen: 2 * time.Hour,
		Pairs: 1, Start: t0,
	}
	sent := t0
	first := collector.Entry{
		VP: vpRIS, Received: sent.Add(20 * time.Second), Exported: sent.Add(45 * time.Second),
		Update: &bgp.Update{
			ASPath:     seqPath(1, 2, 3),
			NLRI:       []bgp.Prefix{anchor},
			Aggregator: &bgp.Aggregator{AS: 3, ID: beacon.EncodeTimestamp(sent)},
		},
	}
	dup := first
	dup.Exported = sent.Add(90 * time.Second) // duplicate later: ignored
	samples := PropagationDeltas([]collector.Entry{first, dup}, []beacon.Schedule{anchorSched})
	if len(samples) != 1 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].Delta != 45*time.Second {
		t.Errorf("delta = %v", samples[0].Delta)
	}
}

// TestEndToEndWithSimulator runs the full pipeline: beacons over a network
// with one damping AS, collection, MRT, labeling.
func TestEndToEndWithSimulator(t *testing.T) {
	// Topology: VP at AS1 (tier1), damper AS2 between 1 and origin 3;
	// second origin 5 behind non-damping AS4 for the control path.
	g := topology.NewGraph()
	for asn, tier := range map[bgp.ASN]topology.Tier{
		1: topology.TierOne, 2: topology.TierTransit, 3: topology.TierStub,
		4: topology.TierTransit, 5: topology.TierStub,
	} {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct{ a, b bgp.ASN }{{1, 2}, {2, 3}, {1, 4}, {4, 5}} {
		if err := g.AddLink(l.a, l.b, topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	eng := netsim.NewEngine(t0.Add(-time.Hour))
	opts := router.Options{
		LinkDelay: func(a, b bgp.ASN, rng *stats.RNG) time.Duration { return 50 * time.Millisecond },
		MRAI:      func(asn bgp.ASN, rng *stats.RNG) time.Duration { return 0 },
		RFD: func(asn bgp.ASN) *router.RFDPolicy {
			if asn == 2 {
				return &router.RFDPolicy{Params: rfd.Cisco}
			}
			return nil
		},
	}
	net := router.New(eng, g, opts, stats.NewRNG(1))
	col := collector.New(stats.NewRNG(2))
	if err := col.AttachContext(context.Background(), net, []collector.VantagePoint{vpRIS}); err != nil {
		t.Fatal(err)
	}

	schedDamped := beacon.Schedule{
		Site: 3, Prefix: bgp.MustPrefix("10.1.1.0/24"), UpdateInterval: time.Minute,
		BurstLen: 90 * time.Minute, BreakLen: 3 * time.Hour, Pairs: 2, Start: t0,
	}
	schedClean := beacon.Schedule{
		Site: 5, Prefix: bgp.MustPrefix("10.2.1.0/24"), UpdateInterval: time.Minute,
		BurstLen: 90 * time.Minute, BreakLen: 3 * time.Hour, Pairs: 2, Start: t0,
	}
	for _, s := range []beacon.Schedule{schedDamped, schedClean} {
		evs, err := s.Events()
		if err != nil {
			t.Fatal(err)
		}
		if err := beacon.Drive(eng, net, evs); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()

	ms := LabelPathsContext(context.Background(), col.Entries(), []beacon.Schedule{schedDamped, schedClean}, Config{})
	var damped, clean *Measurement
	for i := range ms {
		switch ms[i].Site {
		case 3:
			damped = &ms[i]
		case 5:
			clean = &ms[i]
		}
	}
	if damped == nil || clean == nil {
		t.Fatalf("missing measurements: %+v", ms)
	}
	if !damped.RFD {
		t.Errorf("path through damper not labeled RFD: %+v", damped)
	}
	if clean.RFD {
		t.Errorf("clean path labeled RFD: %+v", clean)
	}
	if bgp.PathKey(damped.Path) != "1 2 3" {
		t.Errorf("damped path = %v", damped.Path)
	}
	for _, d := range damped.RDeltas {
		if d < 5*time.Minute || d > 65*time.Minute {
			t.Errorf("implausible rdelta %v", d)
		}
	}
}

func TestMeasurementJSONRoundTrip(t *testing.T) {
	ms := []Measurement{
		{
			VP:         vpRIS,
			Prefix:     pfx,
			Site:       3,
			Path:       []bgp.ASN{1, 2, 3},
			RFD:        true,
			PairsTotal: 4,
			PairsRFD:   4,
			RDeltas:    []time.Duration{10 * time.Minute, 59 * time.Minute},
		},
		{
			VP:         collector.VantagePoint{AS: 9, Project: collector.Isolario},
			Prefix:     anchor,
			Site:       5,
			Path:       []bgp.ASN{9, 4, 5},
			RFD:        false,
			PairsTotal: 4,
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, ms); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip count = %d", len(back))
	}
	for i := range back {
		if back[i].RFD != ms[i].RFD || back[i].Site != ms[i].Site ||
			back[i].VP != ms[i].VP || back[i].Prefix != ms[i].Prefix ||
			back[i].PairsTotal != ms[i].PairsTotal {
			t.Errorf("measurement %d = %+v, want %+v", i, back[i], ms[i])
		}
		if bgp.PathKey(back[i].TomographyPath()) != bgp.PathKey(ms[i].TomographyPath()) {
			t.Errorf("tomography path %d = %v", i, back[i].TomographyPath())
		}
	}
	if len(back[0].RDeltas) != 2 || back[0].RDeltas[1] != 59*time.Minute {
		t.Errorf("rdeltas = %v", back[0].RDeltas)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`[{"path":[],"positive":true}]`))); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`[{"path":[1],"prefix":"nonsense"}]`))); err == nil {
		t.Error("bad prefix accepted")
	}
}
