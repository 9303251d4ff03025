package topology

import (
	"testing"

	"because/internal/bgp"
)

func mustGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	// 1 (tier1) provides to 2 and 3 (transit); 2 and 3 peer; 2 provides to
	// 4 (stub); 3 provides to 5 (stub).
	for asn, tier := range map[bgp.ASN]Tier{1: TierOne, 2: TierTransit, 3: TierTransit, 4: TierStub, 5: TierStub} {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	links := []struct {
		a, b bgp.ASN
		rel  Relationship
	}{
		{1, 2, RelCustomer},
		{1, 3, RelCustomer},
		{2, 3, RelPeer},
		{2, 4, RelCustomer},
		{3, 5, RelCustomer},
	}
	for _, l := range links {
		if err := g.AddLink(l.a, l.b, l.rel); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := mustGraph(t)
	if g.Len() != 5 || g.Links() != 5 {
		t.Fatalf("Len=%d Links=%d", g.Len(), g.Links())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	as1 := g.AS(1)
	if got := as1.Customers(); len(got) != 2 {
		t.Errorf("AS1 customers = %v", got)
	}
	as2 := g.AS(2)
	if got := as2.Providers(); len(got) != 1 || got[0] != 1 {
		t.Errorf("AS2 providers = %v", got)
	}
	if n, ok := as2.Neighbor(3); !ok || n.Rel != RelPeer {
		t.Errorf("AS2->AS3 = %+v ok=%v, want a peer", n, ok)
	}
	if g.AS(99) != nil {
		t.Error("unknown AS should be nil")
	}
}

func TestNeighborLookup(t *testing.T) {
	g := mustGraph(t)
	n, ok := g.AS(2).Neighbor(4)
	if !ok || n.Rel != RelCustomer {
		t.Errorf("AS2->AS4 = %+v ok=%v", n, ok)
	}
	if _, ok := g.AS(2).Neighbor(5); ok {
		t.Error("AS2 should not neighbor AS5")
	}
}

func TestAddErrors(t *testing.T) {
	g := mustGraph(t)
	if err := g.AddAS(1, TierStub); err == nil {
		t.Error("duplicate AS accepted")
	}
	if err := g.AddLink(1, 1, RelPeer); err == nil {
		t.Error("self link accepted")
	}
	if err := g.AddLink(1, 2, RelPeer); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := g.AddLink(1, 99, RelPeer); err == nil {
		t.Error("link to unknown AS accepted")
	}
	if err := g.AddLink(99, 1, RelPeer); err == nil {
		t.Error("link from unknown AS accepted")
	}
}

func TestRelationshipInvert(t *testing.T) {
	if RelCustomer.Invert() != RelProvider || RelProvider.Invert() != RelCustomer || RelPeer.Invert() != RelPeer {
		t.Error("Invert wrong")
	}
	if RelCustomer.String() != "customer" || RelProvider.String() != "provider" || RelPeer.String() != "peer" {
		t.Error("String wrong")
	}
}

func TestShouldExportValleyFree(t *testing.T) {
	// Routes from customers go everywhere.
	for _, to := range []Relationship{RelCustomer, RelProvider, RelPeer} {
		if !ShouldExport(RelCustomer, to) {
			t.Errorf("customer route not exported to %v", to)
		}
	}
	// Routes from peers/providers go only to customers.
	for _, from := range []Relationship{RelPeer, RelProvider} {
		if !ShouldExport(from, RelCustomer) {
			t.Errorf("%v route not exported to customer", from)
		}
		if ShouldExport(from, RelPeer) || ShouldExport(from, RelProvider) {
			t.Errorf("%v route leaked to non-customer", from)
		}
	}
}

func TestCustomerCone(t *testing.T) {
	g := mustGraph(t)
	cone := g.CustomerCone(1)
	if len(cone) != 5 {
		t.Errorf("tier1 cone = %v", cone)
	}
	cone = g.CustomerCone(2)
	if len(cone) != 2 || !cone[2] || !cone[4] {
		t.Errorf("AS2 cone = %v", cone)
	}
	cone = g.CustomerCone(4)
	if len(cone) != 1 {
		t.Errorf("stub cone = %v", cone)
	}
	if len(g.CustomerCone(99)) != 1 {
		t.Error("unknown AS cone should contain only itself")
	}
}

func TestASNsSorted(t *testing.T) {
	g := NewGraph()
	for _, asn := range []bgp.ASN{5, 1, 3, 2, 4} {
		if err := g.AddAS(asn, TierStub); err != nil {
			t.Fatal(err)
		}
	}
	asns := g.ASNs()
	for i := 1; i < len(asns); i++ {
		if asns[i] <= asns[i-1] {
			t.Fatalf("ASNs not sorted: %v", asns)
		}
	}
}

func TestValidateDetectsTierViolation(t *testing.T) {
	g := NewGraph()
	if err := g.AddAS(1, TierOne); err != nil {
		t.Fatal(err)
	}
	if err := g.AddAS(2, TierTransit); err != nil {
		t.Fatal(err)
	}
	// Make the tier-1 a customer of the transit: invalid.
	if err := g.AddLink(2, 1, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Error("tier-1 with provider passed validation")
	}
}

func TestTierString(t *testing.T) {
	if TierOne.String() != "tier1" || TierTransit.String() != "transit" || TierStub.String() != "stub" {
		t.Error("Tier.String wrong")
	}
}
