package beacon

import (
	"testing"
	"time"

	"because/internal/bgp"
	"because/internal/netsim"
	"because/internal/router"
	"because/internal/stats"
	"because/internal/topology"
)

var t0 = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

func oscSchedule() Schedule {
	return Schedule{
		Site:           5,
		Prefix:         bgp.MustPrefix("10.1.1.0/24"),
		UpdateInterval: time.Minute,
		BurstLen:       10 * time.Minute,
		BreakLen:       30 * time.Minute,
		Pairs:          2,
		Start:          t0,
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	ts := EncodeTimestamp(t0)
	if got := DecodeTimestamp(ts); !got.Equal(t0) {
		t.Errorf("round trip = %v, want %v", got, t0)
	}
}

func TestScheduleValidation(t *testing.T) {
	good := oscSchedule()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schedule{
		{},
		{Site: 1, Prefix: bgp.MustPrefix("10.0.0.0/24")}, // pairs 0
		{Site: 1, Prefix: bgp.MustPrefix("10.0.0.0/24"), Pairs: 1, UpdateInterval: time.Hour, BurstLen: time.Minute, BreakLen: time.Hour}, // burst too short
		{Site: 1, Prefix: bgp.MustPrefix("10.0.0.0/24"), Pairs: 1, UpdateInterval: time.Minute, BurstLen: time.Hour},                      // break 0
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
	// Anchor (interval 0) is valid without burst constraints.
	anchor := Schedule{Site: 1, Prefix: bgp.MustPrefix("10.0.0.0/24"), Pairs: 1, BurstLen: 2 * time.Hour, BreakLen: 6 * time.Hour, Start: t0}
	if !anchor.IsAnchor() {
		t.Error("IsAnchor false")
	}
	if err := anchor.Validate(); err != nil {
		t.Errorf("anchor invalid: %v", err)
	}
}

func TestBurstEventPattern(t *testing.T) {
	s := oscSchedule()
	evs, err := s.Events()
	if err != nil {
		t.Fatal(err)
	}
	// First event is the warmup announcement.
	if !evs[0].Announce || !evs[0].At.Equal(t0.Add(-DefaultWarmup)) {
		t.Fatalf("warmup event = %+v", evs[0])
	}
	// Burst events: withdrawal first, announcement last, strictly
	// alternating, spaced by the interval.
	burst := evs[1:]
	perPair := s.lastBurstStep() + 1
	if len(burst) != perPair*s.Pairs {
		t.Fatalf("burst events = %d, want %d", len(burst), perPair*s.Pairs)
	}
	first := burst[0]
	if first.Announce || !first.At.Equal(t0) {
		t.Errorf("first burst event = %+v, want withdrawal at start", first)
	}
	lastOfPair1 := burst[perPair-1]
	if !lastOfPair1.Announce {
		t.Error("burst must end with an announcement")
	}
	for i := 1; i < perPair; i++ {
		if burst[i].Announce == burst[i-1].Announce {
			t.Fatalf("burst not alternating at %d", i)
		}
		if got := burst[i].At.Sub(burst[i-1].At); got != s.UpdateInterval {
			t.Fatalf("spacing = %v", got)
		}
	}
	// Second pair starts one period later.
	pair2 := burst[perPair]
	if !pair2.At.Equal(t0.Add(s.BurstLen + s.BreakLen)) {
		t.Errorf("pair 2 starts at %v", pair2.At)
	}
}

func TestPairWindow(t *testing.T) {
	s := oscSchedule()
	start, end, brk := s.PairWindow(0)
	if !start.Equal(t0) {
		t.Errorf("burst start = %v", start)
	}
	// 10-minute burst at 1-minute interval: last step is k=9 (odd).
	if !end.Equal(t0.Add(9 * time.Minute)) {
		t.Errorf("burst end = %v", end)
	}
	if !brk.Equal(t0.Add(40 * time.Minute)) {
		t.Errorf("break end = %v", brk)
	}
	start2, _, _ := s.PairWindow(1)
	if !start2.Equal(t0.Add(40 * time.Minute)) {
		t.Errorf("pair 1 start = %v", start2)
	}
}

func TestEventsEndOnAnnouncementForEvenSteps(t *testing.T) {
	// A burst of 8 minutes at 2-minute interval: floor = 4 (even) -> last
	// step must drop to 3, ending on an announcement.
	s := oscSchedule()
	s.UpdateInterval = 2 * time.Minute
	s.BurstLen = 8 * time.Minute
	if got := s.lastBurstStep(); got != 3 {
		t.Errorf("lastBurstStep = %d", got)
	}
}

func TestAnchorEvents(t *testing.T) {
	s := Schedule{
		Site: 5, Prefix: bgp.MustPrefix("10.1.0.0/24"),
		BurstLen: 2 * time.Hour, BreakLen: 6 * time.Hour, Pairs: 1, Start: t0,
	}
	evs, err := s.Events()
	if err != nil {
		t.Fatal(err)
	}
	// 8 hours total at 2-hour half cycle: 4 events A,W,A,W.
	if len(evs) != 4 {
		t.Fatalf("anchor events = %d", len(evs))
	}
	for i, ev := range evs {
		wantA := i%2 == 0
		if ev.Announce != wantA {
			t.Errorf("event %d announce=%v", i, ev.Announce)
		}
		if want := t0.Add(time.Duration(i) * AnchorPeriod); !ev.At.Equal(want) {
			t.Errorf("event %d at %v, want %v", i, ev.At, want)
		}
	}
}

func TestCampaignValidateRejects(t *testing.T) {
	bad := []Campaign{
		{},
		{Name: "x", Pairs: 1},
		{Name: "x", Intervals: []time.Duration{time.Minute}},
		{Name: "x", Intervals: []time.Duration{-time.Minute}, Pairs: 1},
		{Name: "x", Intervals: []time.Duration{time.Hour}, BurstLen: time.Minute, Pairs: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad campaign %d accepted", i)
		}
	}
}

func TestCampaignSchedules(t *testing.T) {
	sites := []Site{{Name: "eu-1", ASN: 100, Index: 0}, {Name: "us-1", ASN: 200, Index: 1}}
	c := Campaign{
		Name:      "march-2020",
		Intervals: []time.Duration{1 * time.Minute, 2 * time.Minute, 3 * time.Minute},
		BurstLen:  2 * time.Hour,
		BreakLen:  6 * time.Hour,
		Pairs:     4,
	}
	scheds, err := c.Schedules(sites, t0)
	if err != nil {
		t.Fatal(err)
	}
	// Per site: 1 anchor + 3 oscillating.
	if len(scheds) != 8 {
		t.Fatalf("schedules = %d", len(scheds))
	}
	anchors, osc := 0, 0
	prefixes := map[bgp.Prefix]bool{}
	for _, s := range scheds {
		if prefixes[s.Prefix] {
			t.Errorf("duplicate prefix %v", s.Prefix)
		}
		prefixes[s.Prefix] = true
		if s.IsAnchor() {
			anchors++
		} else {
			osc++
		}
		if err := s.Validate(); err != nil {
			t.Errorf("schedule invalid: %v", err)
		}
	}
	if anchors != 2 || osc != 6 {
		t.Errorf("anchors=%d osc=%d", anchors, osc)
	}
}

func TestSitePrefixes(t *testing.T) {
	s := Site{Name: "eu-1", ASN: 1, Index: 2}
	if got := s.AnchorPrefix(); got != bgp.MustPrefix("10.3.0.0/24") {
		t.Errorf("anchor = %v", got)
	}
	if got := s.OscillatingPrefix(3); got != bgp.MustPrefix("10.3.3.0/24") {
		t.Errorf("osc = %v", got)
	}
}

func TestDriveAppliesEvents(t *testing.T) {
	g := topology.NewGraph()
	if err := g.AddAS(1, topology.TierOne); err != nil {
		t.Fatal(err)
	}
	if err := g.AddAS(5, topology.TierStub); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 5, topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine(t0.Add(-time.Hour))
	net := router.New(eng, g, router.Options{
		LinkDelay: func(a, b bgp.ASN, rng *stats.RNG) time.Duration { return time.Millisecond },
		MRAI:      func(asn bgp.ASN, rng *stats.RNG) time.Duration { return 0 },
	}, stats.NewRNG(1))

	var announces, withdraws int
	if err := net.AttachMonitor(1, func(now time.Time, u *bgp.Update) {
		if u.IsWithdrawalOnly() {
			withdraws++
		} else {
			announces++
			if u.Aggregator == nil {
				t.Error("beacon announcement lost its aggregator timestamp")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	s := oscSchedule()
	evs, err := s.Events()
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(eng, net, evs); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Per pair: 5 withdrawals + 5 announcements; plus the warmup announce.
	if withdraws != 10 {
		t.Errorf("withdraws = %d, want 10", withdraws)
	}
	if announces != 11 {
		t.Errorf("announces = %d, want 11", announces)
	}
}

func TestDriveRejectsPastEvents(t *testing.T) {
	g := topology.NewGraph()
	if err := g.AddAS(5, topology.TierStub); err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine(t0)
	net := router.New(eng, g, router.Options{}, stats.NewRNG(1))
	evs := []Event{{At: t0.Add(-time.Hour), Prefix: bgp.MustPrefix("10.0.0.0/24"), Site: 5, Announce: true}}
	if err := Drive(eng, net, evs); err == nil {
		t.Error("past event accepted")
	}
}

func TestDriveRejectsUnknownSite(t *testing.T) {
	g := topology.NewGraph()
	if err := g.AddAS(5, topology.TierStub); err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine(t0)
	net := router.New(eng, g, router.Options{}, stats.NewRNG(1))
	evs := []Event{{At: t0.Add(time.Hour), Prefix: bgp.MustPrefix("10.0.0.0/24"), Site: 77, Announce: true}}
	if err := Drive(eng, net, evs); err == nil {
		t.Error("unknown site accepted")
	}
}

func TestFailedDriveSchedulesNothing(t *testing.T) {
	pfx := bgp.MustPrefix("10.0.0.0/24")
	valid := Event{At: t0.Add(time.Hour), Prefix: pfx, Site: 5, Announce: true}
	for _, c := range []struct {
		name string
		bad  Event
	}{
		{"unknown site", Event{At: t0.Add(2 * time.Hour), Prefix: pfx, Site: 77, Announce: true}},
		{"past event", Event{At: t0.Add(-time.Hour), Prefix: pfx, Site: 5}},
	} {
		name := c.name
		g := topology.NewGraph()
		if err := g.AddAS(5, topology.TierStub); err != nil {
			t.Fatal(err)
		}
		eng := netsim.NewEngine(t0)
		net := router.New(eng, g, router.Options{}, stats.NewRNG(1))
		if err := Drive(eng, net, []Event{valid, c.bad}); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if end := eng.Run(); !end.Equal(t0) {
			t.Errorf("%s: the engine ran until %v, want nothing run after %v", name, end, t0)
		}
		if _, ok := net.Router(5).Best(pfx); ok {
			t.Errorf("%s: the valid event was scheduled and ran", name)
		}
	}
}
