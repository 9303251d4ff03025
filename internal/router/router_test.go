package router

import (
	"testing"
	"time"

	"because/internal/bgp"
	"because/internal/netsim"
	"because/internal/rfd"
	"because/internal/stats"
	"because/internal/topology"
)

var (
	t0  = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	pfx = bgp.MustPrefix("203.0.113.0/24")
)

// chainGraph builds 1 -> 2 -> ... -> n where each lower ASN is the
// provider of the next (so AS 1 is the top and AS n the stub origin).
func chainGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for i := 1; i <= n; i++ {
		tier := topology.TierTransit
		if i == 1 {
			tier = topology.TierOne
		}
		if i == n {
			tier = topology.TierStub
		}
		if err := g.AddAS(bgp.ASN(i), tier); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddLink(bgp.ASN(i), bgp.ASN(i+1), topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// diamondGraph: origin 4 connects to transits 2 and 3, both customers of
// tier-1 AS 1. Vantage AS 5 is a customer of 1.
//
//	   1
//	 / | \
//	2  3  5
//	 \ |
//	  4
func diamondGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	add := func(asn bgp.ASN, tier topology.Tier) {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	add(1, topology.TierOne)
	add(2, topology.TierTransit)
	add(3, topology.TierTransit)
	add(4, topology.TierStub)
	add(5, topology.TierStub)
	for _, l := range []struct{ a, b bgp.ASN }{{1, 2}, {1, 3}, {1, 5}, {2, 4}, {3, 4}} {
		if err := g.AddLink(l.a, l.b, topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// ribProbe drives and inspects one router's state for one prefix by
// prefix and neighbor ASN: tests originate and withdraw synchronously
// inside their own events, and read RFD suppression off the Adj-RIB-In.
type ribProbe struct {
	r  *Router
	id int32
}

func probe(r *Router, prefix bgp.Prefix) ribProbe { return ribProbe{r, r.net.prefixID(prefix)} }

// originate starts originating the prefix with aggregator timestamp ts.
func (p ribProbe) originate(ts uint32) {
	p.r.setOrigin(p.id, &bgp.Aggregator{AS: p.r.asn, ID: ts})
}

// withdraw stops originating the prefix.
func (p ribProbe) withdraw() { p.r.setOrigin(p.id, nil) }

// suppressed reports whether RFD withholds the route learned from neighbor.
func (p ribProbe) suppressed(neighbor bgp.ASN) bool {
	return p.r.ribs[p.id].adjIn[p.r.sessionTo(neighbor)].suppressed
}

// fastOpts removes MRAI and uses small constant link delays so tests can
// reason about timing precisely.
func fastOpts() Options {
	return Options{
		LinkDelay: func(a, b bgp.ASN, rng *stats.RNG) time.Duration { return 10 * time.Millisecond },
		MRAI:      func(asn bgp.ASN, rng *stats.RNG) time.Duration { return 0 },
	}
}

func TestAnnouncementPropagates(t *testing.T) {
	g := chainGraph(t, 5)
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	if err := net.Originate(5, pfx, 42); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 1; i <= 5; i++ {
		path, ok := net.Router(bgp.ASN(i)).Best(pfx)
		if !ok {
			t.Fatalf("AS%d has no route", i)
		}
		origin, _ := path.Origin()
		if origin != 5 {
			t.Errorf("AS%d origin = %v", i, origin)
		}
	}
	// AS1's path must be 1 2 3 4 5.
	path, _ := net.Router(1).Best(pfx)
	if bgp.PathKey(path.Clean()) != "1 2 3 4 5" {
		t.Errorf("AS1 path = %v", path)
	}
}

func TestWithdrawalPropagates(t *testing.T) {
	g := chainGraph(t, 4)
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	if err := net.Originate(4, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := net.WithdrawOrigin(4, pfx); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 1; i <= 4; i++ {
		if _, ok := net.Router(bgp.ASN(i)).Best(pfx); ok {
			t.Errorf("AS%d still has a route after withdrawal", i)
		}
	}
}

func TestValleyFreePaths(t *testing.T) {
	// Peers must not transit each other's routes: build 1--2 peer, each
	// with a customer; customer routes cross the peering link, but a route
	// learned from the peer must not be re-exported to the other peer.
	g := topology.NewGraph()
	for asn, tier := range map[bgp.ASN]topology.Tier{1: topology.TierOne, 2: topology.TierOne, 3: topology.TierStub, 4: topology.TierStub} {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddLink(1, 2, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 3, topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(2, 4, topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	if err := net.Originate(3, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// AS4 must have the route (1 exports customer route to peer 2, which
	// exports to customer 4).
	path, ok := net.Router(4).Best(pfx)
	if !ok {
		t.Fatal("AS4 unreachable")
	}
	if bgp.PathKey(path.Clean()) != "4 2 1 3" {
		t.Errorf("AS4 path = %v", path)
	}
}

func TestPeerRouteNotExportedToPeer(t *testing.T) {
	// 1--2 peer, 2--3 peer; 1 originates. 3 must NOT learn it (valley).
	g := topology.NewGraph()
	for _, asn := range []bgp.ASN{1, 2, 3} {
		if err := g.AddAS(asn, topology.TierOne); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddLink(1, 2, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(2, 3, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	if err := net.Originate(1, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := net.Router(2).Best(pfx); !ok {
		t.Error("AS2 should learn from its peer")
	}
	if _, ok := net.Router(3).Best(pfx); ok {
		t.Error("valley: AS3 learned a peer route through a peer")
	}
}

func TestCustomerRoutePreferred(t *testing.T) {
	// AS1 learns the prefix via a long customer chain and a short peer
	// path. Customer must win despite length.
	g := topology.NewGraph()
	for asn, tier := range map[bgp.ASN]topology.Tier{
		1: topology.TierOne, 2: topology.TierOne, 3: topology.TierTransit,
		4: topology.TierTransit, 5: topology.TierStub,
	} {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	// Customer chain: 1 -> 3 -> 4 -> 5 (origin), peer shortcut 1--2 -> 5.
	for _, l := range []struct {
		a, b bgp.ASN
		rel  topology.Relationship
	}{
		{1, 3, topology.RelCustomer}, {3, 4, topology.RelCustomer}, {4, 5, topology.RelCustomer},
		{1, 2, topology.RelPeer}, {2, 5, topology.RelCustomer},
	} {
		if err := g.AddLink(l.a, l.b, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	if err := net.Originate(5, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	path, ok := net.Router(1).Best(pfx)
	if !ok {
		t.Fatal("AS1 unreachable")
	}
	if bgp.PathKey(path.Clean()) != "1 3 4 5" {
		t.Errorf("AS1 chose %v, want the customer path 1 3 4 5", path)
	}
}

func TestShorterPathWinsWithinClass(t *testing.T) {
	g := diamondGraph(t)
	// Add a direct 1->4 customer link making a 2-hop path.
	if err := g.AddLink(1, 4, topology.RelCustomer); err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	if err := net.Originate(4, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	path, _ := net.Router(1).Best(pfx)
	if bgp.PathKey(path.Clean()) != "1 4" {
		t.Errorf("AS1 path = %v, want direct 1 4", path)
	}
}

func TestMonitorSeesAnnounceAndWithdraw(t *testing.T) {
	g := chainGraph(t, 3)
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	var got []*bgp.Update
	if err := net.AttachMonitor(1, func(now time.Time, u *bgp.Update) {
		got = append(got, u)
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(3, pfx, 777); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := net.WithdrawOrigin(3, pfx); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("monitor saw %d updates, want 2", len(got))
	}
	if got[0].IsWithdrawalOnly() || got[0].Aggregator == nil || got[0].Aggregator.ID != 777 {
		t.Errorf("first update = %v", got[0])
	}
	if bgp.PathKey(got[0].ASPath.Clean()) != "1 2 3" {
		t.Errorf("monitor path = %v", got[0].ASPath)
	}
	if !got[1].IsWithdrawalOnly() {
		t.Errorf("second update = %v", got[1])
	}
}

// TestMonitorsGetIndependentUpdates checks the MonitorFunc contract: two
// monitors on one router each get their own update, so one rewriting the
// update's fields or its NLRI/Withdrawn slices leaves what the other
// receives intact.
func TestMonitorsGetIndependentUpdates(t *testing.T) {
	g := chainGraph(t, 3)
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	other := bgp.MustPrefix("198.51.100.0/24")
	if err := net.AttachMonitor(1, func(now time.Time, u *bgp.Update) {
		for i := range u.NLRI {
			u.NLRI[i] = other
		}
		for i := range u.Withdrawn {
			u.Withdrawn[i] = other
		}
		u.NLRI = append(u.NLRI, other)
		u.Origin, u.ASPath, u.Aggregator = bgp.OriginIncomplete, bgp.NewPath(9), nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []*bgp.Update
	if err := net.AttachMonitor(1, func(now time.Time, u *bgp.Update) {
		got = append(got, u)
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(3, pfx, 777); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := net.WithdrawOrigin(3, pfx); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("second monitor saw %d updates, want 2", len(got))
	}
	a := got[0]
	if len(a.NLRI) != 1 || a.NLRI[0] != pfx || len(a.Withdrawn) != 0 || a.Origin != bgp.OriginIGP ||
		bgp.PathKey(a.ASPath.Clean()) != "1 2 3" || a.Aggregator == nil || a.Aggregator.ID != 777 {
		t.Errorf("announcement = %v (origin %v, aggregator %v)", a, a.Origin, a.Aggregator)
	}
	w := got[1]
	if len(w.Withdrawn) != 1 || w.Withdrawn[0] != pfx || len(w.NLRI) != 0 {
		t.Errorf("withdrawal = %v", w)
	}
}

// TestFlapCycleAllocatesNothing pins the speaker-to-speaker write path at
// zero allocations in steady state: once the message and MRAI timer pools,
// the event queue and the path intern table have warmed up, a flap cycle
// (announce, withdraw, re-announce) over a network with MRAI and without
// RFD or monitors allocates nothing.
func TestFlapCycleAllocatesNothing(t *testing.T) {
	eng := netsim.NewEngine(t0)
	opts := Options{
		LinkDelay: func(a, b bgp.ASN, rng *stats.RNG) time.Duration { return 10 * time.Millisecond },
		MRAI:      func(asn bgp.ASN, rng *stats.RNG) time.Duration { return 30 * time.Second },
	}
	net := New(eng, diamondGraph(t), opts, stats.NewRNG(1))
	origin := probe(net.Router(4), pfx)
	agg := &bgp.Aggregator{AS: 4, ID: 42}
	cycle := func() {
		origin.r.setOrigin(origin.id, agg)
		eng.Run()
		origin.withdraw()
		eng.Run()
		origin.r.setOrigin(origin.id, agg)
		eng.Run()
	}
	cycle()
	cycle()
	sent := origin.r.UpdatesSent
	cycle()
	if origin.r.UpdatesSent == sent || len(net.messages) == 0 || len(net.timers) == 0 {
		t.Fatalf("the flap cycle sent %d updates with %d pooled messages and %d pooled MRAI timers; want all non-zero",
			origin.r.UpdatesSent-sent, len(net.messages), len(net.timers))
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("flap cycle: %g allocs/op, want 0", n)
	}
}

func TestMonitorUnknownAS(t *testing.T) {
	g := chainGraph(t, 2)
	net := New(netsim.NewEngine(t0), g, fastOpts(), stats.NewRNG(1))
	if err := net.AttachMonitor(99, nil); err == nil {
		t.Error("attach to unknown AS accepted")
	}
	if err := net.Originate(99, pfx, 1); err == nil {
		t.Error("originate from unknown AS accepted")
	}
	if err := net.WithdrawOrigin(99, pfx); err == nil {
		t.Error("withdraw from unknown AS accepted")
	}
}

func TestAggregatorTimestampRefreshPropagates(t *testing.T) {
	// Re-announcing with a new beacon timestamp must reach the monitor as
	// a fresh update (attribute change), not be suppressed as a duplicate.
	g := chainGraph(t, 3)
	eng := netsim.NewEngine(t0)
	net := New(eng, g, fastOpts(), stats.NewRNG(1))
	var stamps []uint32
	if err := net.AttachMonitor(1, func(now time.Time, u *bgp.Update) {
		if u.Aggregator != nil {
			stamps = append(stamps, u.Aggregator.ID)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 3; i++ {
		if err := net.Originate(3, pfx, i); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if len(stamps) != 3 || stamps[0] != 1 || stamps[2] != 3 {
		t.Errorf("stamps = %v", stamps)
	}
}

func TestMRAIBatchesChurn(t *testing.T) {
	// AS2 has a 30 s MRAI. Rapid flapping at the origin must reach the
	// monitor on AS1 with far fewer announcements than were sent.
	g := chainGraph(t, 3)
	eng := netsim.NewEngine(t0)
	opts := fastOpts()
	opts.MRAI = func(asn bgp.ASN, rng *stats.RNG) time.Duration {
		if asn == 2 {
			return 30 * time.Second
		}
		return 0
	}
	net := New(eng, g, opts, stats.NewRNG(1))
	announces := 0
	if err := net.AttachMonitor(1, func(now time.Time, u *bgp.Update) {
		if !u.IsWithdrawalOnly() {
			announces++
		}
	}); err != nil {
		t.Fatal(err)
	}
	// 20 announcements 1 s apart (fresh timestamps each).
	for i := 0; i < 20; i++ {
		ts := uint32(i + 1)
		eng.At(t0.Add(time.Duration(i)*time.Second), netsim.Func(func() { probe(net.Router(3), pfx).originate(ts) }))
	}
	eng.Run()
	if announces >= 20 {
		t.Errorf("MRAI did not batch: %d announcements reached the monitor", announces)
	}
	if announces == 0 {
		t.Error("no announcements reached the monitor at all")
	}
}

func TestRFDSuppressesAndDelaysReadvertisement(t *testing.T) {
	// Chain 1-2-3; AS2 damps (Cisco defaults). Beacon at AS3 flaps every
	// minute for an hour, then stops with a final announcement. The monitor
	// at AS1 must observe (a) silence once suppression kicks in and (b) a
	// re-advertisement minutes after the last beacon event.
	g := chainGraph(t, 3)
	eng := netsim.NewEngine(t0)
	opts := fastOpts()
	opts.RFD = func(asn bgp.ASN) *RFDPolicy {
		if asn == 2 {
			return &RFDPolicy{Params: rfd.Cisco}
		}
		return nil
	}
	net := New(eng, g, opts, stats.NewRNG(1))
	type obs struct {
		at       time.Time
		withdraw bool
	}
	var seen []obs
	if err := net.AttachMonitor(1, func(now time.Time, u *bgp.Update) {
		seen = append(seen, obs{at: now, withdraw: u.IsWithdrawalOnly()})
	}); err != nil {
		t.Fatal(err)
	}

	// Burst: withdraw/announce alternating every minute for 60 minutes,
	// ending on an announcement.
	for i := 0; i < 60; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if i%2 == 0 {
			ts := uint32(at.Unix())
			eng.At(at, netsim.Func(func() { probe(net.Router(3), pfx).originate(ts) }))
		} else {
			eng.At(at, netsim.Func(func() { probe(net.Router(3), pfx).withdraw() }))
		}
	}
	// Final announcement at minute 60 (burst ends on announce).
	burstEnd := t0.Add(60 * time.Minute)
	eng.At(burstEnd, netsim.Func(func() { probe(net.Router(3), pfx).originate(uint32(burstEnd.Unix())) }))
	eng.Run()

	if len(seen) == 0 {
		t.Fatal("monitor saw nothing")
	}
	last := seen[len(seen)-1]
	if last.withdraw {
		t.Fatal("final state at monitor is withdrawn; expected re-advertisement")
	}
	rDelta := last.at.Sub(burstEnd)
	if rDelta < 5*time.Minute {
		t.Errorf("re-advertisement delta = %v, want >= 5m (the RFD signature)", rDelta)
	}
	if rDelta > rfd.Cisco.MaxSuppressTime+time.Minute {
		t.Errorf("re-advertisement delta = %v exceeds max-suppress-time", rDelta)
	}
	// During suppression the monitor must be quiet: no update in the
	// window (burstEnd-20m, readvertisement).
	for _, o := range seen[:len(seen)-1] {
		if o.at.After(burstEnd.Add(-20*time.Minute)) && o.at.Before(last.at.Add(-time.Second)) && !o.withdraw {
			t.Errorf("announcement at %v during expected suppression", o.at)
		}
	}
}

func TestRFDPerNeighborPolicy(t *testing.T) {
	// AS1 at the top with two customers 2 and 3, each with customer 4/5
	// respectively; AS1 damps only the session to AS2. Flapping origin 4
	// (behind 2) gets damped at 1, flapping origin 5 (behind 3) does not.
	g := topology.NewGraph()
	for asn, tier := range map[bgp.ASN]topology.Tier{
		1: topology.TierOne, 2: topology.TierTransit, 3: topology.TierTransit,
		4: topology.TierStub, 5: topology.TierStub,
	} {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct{ a, b bgp.ASN }{{1, 2}, {1, 3}, {2, 4}, {3, 5}} {
		if err := g.AddLink(l.a, l.b, topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	eng := netsim.NewEngine(t0)
	opts := fastOpts()
	opts.RFD = func(asn bgp.ASN) *RFDPolicy {
		if asn == 1 {
			return &RFDPolicy{
				Params:       rfd.Cisco,
				DampNeighbor: func(nb bgp.ASN, rel topology.Relationship) bool { return nb == 2 },
			}
		}
		return nil
	}
	net := New(eng, g, opts, stats.NewRNG(1))
	pfxA := bgp.MustPrefix("203.0.113.0/24")
	pfxB := bgp.MustPrefix("198.51.100.0/24")

	flap := func(origin bgp.ASN, p bgp.Prefix) {
		for i := 0; i < 30; i++ {
			at := t0.Add(time.Duration(i) * time.Minute)
			if i%2 == 0 {
				ts := uint32(at.Unix())
				eng.At(at, netsim.Func(func() { probe(net.Router(origin), p).originate(ts) }))
			} else {
				eng.At(at, netsim.Func(func() { probe(net.Router(origin), p).withdraw() }))
			}
		}
	}
	flap(4, pfxA)
	flap(5, pfxB)
	eng.RunUntil(t0.Add(29*time.Minute + 30*time.Second))

	r1 := net.Router(1)
	if !probe(r1, pfxA).suppressed(2) {
		t.Error("damped session (via AS2) not suppressed")
	}
	if probe(r1, pfxB).suppressed(3) {
		t.Error("undamped session (via AS3) suppressed")
	}
	eng.Run()
}

func TestImportFilterBlocksRoute(t *testing.T) {
	g := chainGraph(t, 3)
	eng := netsim.NewEngine(t0)
	opts := fastOpts()
	opts.ImportFilter = func(owner bgp.ASN, prefix bgp.Prefix, path bgp.Path) bool {
		// AS2 drops everything originated by AS3 (an ROV filter).
		if owner != 2 {
			return true
		}
		origin, _ := path.Origin()
		return origin != 3
	}
	net := New(eng, g, opts, stats.NewRNG(1))
	if err := net.Originate(3, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := net.Router(2).Best(pfx); ok {
		t.Error("filtered route installed at AS2")
	}
	if _, ok := net.Router(1).Best(pfx); ok {
		t.Error("filtered route leaked past AS2")
	}
}

func TestPathHuntingVisibleAtMonitor(t *testing.T) {
	g := diamondGraph(t)
	eng := netsim.NewEngine(t0)
	// Asymmetric delays force sequential exploration.
	opts := Options{
		LinkDelay: func(a, b bgp.ASN, rng *stats.RNG) time.Duration {
			if a == 3 || b == 3 {
				return 300 * time.Millisecond
			}
			return 10 * time.Millisecond
		},
		MRAI: func(asn bgp.ASN, rng *stats.RNG) time.Duration { return 0 },
	}
	net := New(eng, g, opts, stats.NewRNG(1))
	var paths []string
	if err := net.AttachMonitor(5, func(now time.Time, u *bgp.Update) {
		if !u.IsWithdrawalOnly() {
			paths = append(paths, bgp.PathKey(u.ASPath.Clean()))
		} else {
			paths = append(paths, "withdrawn")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(4, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := net.WithdrawOrigin(4, pfx); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Expect: initial path via 2, then on withdrawal an exploration via 3
	// (the slow branch still believes in the route), then final withdrawal.
	if len(paths) < 3 {
		t.Fatalf("no path hunting observed: %v", paths)
	}
	if paths[len(paths)-1] != "withdrawn" {
		t.Errorf("final state = %q", paths[len(paths)-1])
	}
	hunted := false
	for _, p := range paths[1 : len(paths)-1] {
		if p != paths[0] && p != "withdrawn" {
			hunted = true
		}
	}
	if !hunted {
		t.Errorf("no alternative path explored: %v", paths)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		g := diamondGraph(t)
		eng := netsim.NewEngine(t0)
		net := New(eng, g, Options{}, stats.NewRNG(99))
		if err := net.Originate(4, pfx, 1); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if err := net.WithdrawOrigin(4, pfx); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		var sent, recv uint64
		for _, asn := range g.ASNs() {
			r := net.Router(asn)
			sent += r.UpdatesSent
			recv += r.UpdatesReceived
		}
		return sent, recv
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", s1, r1, s2, r2)
	}
}

func TestRouterAccessors(t *testing.T) {
	g := chainGraph(t, 2)
	net := New(netsim.NewEngine(t0), g, fastOpts(), stats.NewRNG(1))
	r := net.Router(1)
	if r.ASN() != 1 {
		t.Error("ASN accessor")
	}
	if r.MRAI() != 0 {
		t.Error("MRAI accessor")
	}
	if r.Damping() {
		t.Error("Damping should be off")
	}
	if net.Engine() == nil || net.Graph() == nil {
		t.Error("nil accessors")
	}
	if net.Router(42) != nil {
		t.Error("unknown router should be nil")
	}
}

func TestPrefixDependentRFDPolicy(t *testing.T) {
	// AS2 damps /24s with Cisco defaults but leaves shorter prefixes on
	// the lenient RFC 7454 parameters (the § 2.1 length-dependent
	// configuration). A 1-minute flap suppresses the /24 quickly; the /20
	// needs the much higher 6000 threshold.
	g := chainGraph(t, 3)
	eng := netsim.NewEngine(t0)
	opts := fastOpts()
	lenient := rfd.RFC7454
	opts.RFD = func(asn bgp.ASN) *RFDPolicy {
		if asn != 2 {
			return nil
		}
		return &RFDPolicy{
			Params: rfd.Cisco,
			ParamsFor: func(p bgp.Prefix) *rfd.Params {
				if p.Bits() < 24 {
					return &lenient
				}
				return nil // /24 and longer: the default (Cisco)
			},
		}
	}
	net := New(eng, g, opts, stats.NewRNG(1))
	long := bgp.MustPrefix("203.0.113.0/24")
	short := bgp.MustPrefix("198.51.0.0/20")

	flap := func(p bgp.Prefix, events int) {
		for i := 0; i < events; i++ {
			at := t0.Add(time.Duration(i) * time.Minute)
			if i%2 == 0 {
				ts := uint32(at.Unix())
				eng.At(at, netsim.Func(func() { probe(net.Router(3), p).originate(ts) }))
			} else {
				eng.At(at, netsim.Func(func() { probe(net.Router(3), p).withdraw() }))
			}
		}
	}
	flap(long, 7)
	flap(short, 7)
	eng.RunUntil(t0.Add(7 * time.Minute))

	r2 := net.Router(2)
	if !probe(r2, long).suppressed(3) {
		t.Error("/24 not suppressed under the aggressive per-prefix config")
	}
	if probe(r2, short).suppressed(3) {
		t.Error("/20 suppressed despite the lenient per-prefix config")
	}
	// Two distinct parameter sets => two damping engines.
	if len(r2.dampers) != 2 {
		t.Errorf("damper engines = %d, want 2", len(r2.dampers))
	}
	eng.Run()
}
