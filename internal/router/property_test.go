package router

import (
	"testing"

	"because/internal/bgp"
	"because/internal/netsim"
	"because/internal/stats"
	"because/internal/topology"
)

// valleyFree checks the Gao-Rexford invariant on a routed path (listed
// vantage-point first, origin last): traversed from the origin toward the
// vantage point, the relationship sequence must match
// customer->provider* (uphill), at most one peer-peer crossing, then
// provider->customer* (downhill). Equivalently, walking the path from the
// VP side, once the route has gone "down" (provider to customer, as seen
// from the origin) it may never go up again.
func valleyFree(t *testing.T, g *topology.Graph, path []bgp.ASN) bool {
	t.Helper()
	// Walk from origin to VP: reverse the cleaned path.
	const (
		up = iota
		peer
		down
	)
	phase := up
	for i := len(path) - 1; i > 0; i-- {
		from, to := path[i], path[i-1]
		nb, ok := g.AS(from).Neighbor(to)
		if !ok {
			t.Fatalf("path %v uses missing link %v-%v", path, from, to)
		}
		var step int
		switch nb.Rel {
		case topology.RelProvider:
			step = up // from's provider: route climbs
		case topology.RelPeer:
			step = peer
		case topology.RelCustomer:
			step = down
		}
		switch phase {
		case up:
			phase = step
		case peer:
			if step != down {
				return false // a second lateral/upward move after peering
			}
			phase = down
		case down:
			if step != down {
				return false // went up again after descending: a valley
			}
		}
	}
	return true
}

// TestAllBestPathsValleyFreeProperty routes beacons over randomly generated
// topologies and asserts every settled best path at every router respects
// the valley-free export discipline.
func TestAllBestPathsValleyFreeProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		cfg := topology.GenConfig{
			Tier1:               3,
			Transit:             15 + int(seed),
			Stubs:               30,
			TransitMaxProviders: 3,
			TransitPeerDegree:   2,
			StubMaxProviders:    2,
			BaseASN:             1000,
		}
		g, err := topology.Generate(cfg, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		// Originate from three different stubs.
		var origins []bgp.ASN
		for _, asn := range g.ASNs() {
			if g.AS(asn).Tier == topology.TierStub {
				origins = append(origins, asn)
				if len(origins) == 3 {
					break
				}
			}
		}
		eng := netsim.NewEngine(t0)
		net := New(eng, g, Options{}, rng.Split())
		prefixes := make([]bgp.Prefix, len(origins))
		for i, origin := range origins {
			prefixes[i] = bgp.MustPrefix(
				[]string{"10.1.0.0/24", "10.2.0.0/24", "10.3.0.0/24"}[i])
			if err := net.Originate(origin, prefixes[i], uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()

		checked := 0
		for _, asn := range g.ASNs() {
			for i := range prefixes {
				if asn == origins[i] {
					continue
				}
				path, ok := net.Router(asn).Best(prefixes[i])
				if !ok {
					continue
				}
				clean := path.Clean()
				if path.HasLoop() {
					t.Errorf("seed %d: loop in %v", seed, clean)
				}
				if !valleyFree(t, g, clean) {
					t.Errorf("seed %d: valley in path %v", seed, clean)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("seed %d: no paths checked", seed)
		}
	}
}

// TestChurnConvergesProperty flaps a prefix repeatedly and checks the
// network always reconverges to the same stable state (no permanent
// oscillation, deterministic final RIBs).
func TestChurnConvergesProperty(t *testing.T) {
	rng := stats.NewRNG(99)
	cfg := topology.GenConfig{
		Tier1: 3, Transit: 12, Stubs: 20,
		TransitMaxProviders: 2, TransitPeerDegree: 1, StubMaxProviders: 2,
		BaseASN: 1000,
	}
	g, err := topology.Generate(cfg, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	var origin bgp.ASN
	for _, asn := range g.ASNs() {
		if g.AS(asn).Tier == topology.TierStub {
			origin = asn
			break
		}
	}
	eng := netsim.NewEngine(t0)
	net := New(eng, g, Options{}, rng.Split())

	snapshot := func() map[bgp.ASN]string {
		out := make(map[bgp.ASN]string)
		for _, asn := range g.ASNs() {
			if path, ok := net.Router(asn).Best(pfx); ok {
				out[asn] = bgp.PathKey(path.Clean())
			}
		}
		return out
	}

	if err := net.Originate(origin, pfx, 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := snapshot()
	if len(want) < g.Len()/2 {
		t.Fatalf("only %d/%d routers converged", len(want), g.Len())
	}

	for round := 0; round < 3; round++ {
		if err := net.WithdrawOrigin(origin, pfx); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		for _, asn := range g.ASNs() {
			if _, ok := net.Router(asn).Best(pfx); ok {
				t.Fatalf("round %d: stale route at %v after withdrawal", round, asn)
			}
		}
		if err := net.Originate(origin, pfx, uint32(round+2)); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		got := snapshot()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d routers have routes, want %d", round, len(got), len(want))
		}
		for asn, p := range want {
			if got[asn] != p {
				t.Errorf("round %d: %v converged to %q, want %q", round, asn, got[asn], p)
			}
		}
	}
}
