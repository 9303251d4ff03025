// Package topology models the inter-domain AS-level topology the
// measurement study runs over: autonomous systems, their business
// relationships (customer–provider and settlement-free peering), and the
// Gao–Rexford export rules that make routing valley-free.
//
// The paper measures the real Internet; this package provides the synthetic
// substitute — an Internet-like hierarchy with a Tier-1 clique, a transit
// middle and a stub edge — whose shape parameters are chosen so the
// tomography inputs (path diversity, link sharing between beacon sites, the
// scarcity of customer links on measured paths) match the published
// observations.
package topology

import (
	"fmt"
	"sort"

	"because/internal/bgp"
)

// Relationship is the business relationship of a link from the perspective
// of one endpoint.
type Relationship uint8

// Relationship values.
const (
	// RelCustomer: the neighbor is my customer (I provide transit to them).
	RelCustomer Relationship = iota
	// RelProvider: the neighbor is my provider.
	RelProvider
	// RelPeer: settlement-free peer.
	RelPeer
)

// String names the relationship.
func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelProvider:
		return "provider"
	case RelPeer:
		return "peer"
	default:
		return fmt.Sprintf("rel(%d)", uint8(r))
	}
}

// Invert returns the relationship as seen from the other endpoint.
func (r Relationship) Invert() Relationship {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return RelPeer
	}
}

// Tier is the coarse role of an AS in the hierarchy.
type Tier uint8

// Tier values.
const (
	TierOne Tier = iota
	TierTransit
	TierStub
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierOne:
		return "tier1"
	case TierTransit:
		return "transit"
	case TierStub:
		return "stub"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Neighbor is one adjacency of an AS.
type Neighbor struct {
	ASN bgp.ASN
	Rel Relationship // relationship of the owner toward this neighbor
}

// AS is one autonomous system node.
type AS struct {
	ASN  bgp.ASN
	Tier Tier
	// Neighbors is kept sorted by ASN so iteration order — and therefore
	// every simulation run — is deterministic.
	Neighbors []Neighbor
}

// Neighbor returns the adjacency entry for asn, if present.
func (a *AS) Neighbor(asn bgp.ASN) (Neighbor, bool) {
	i := sort.Search(len(a.Neighbors), func(i int) bool { return a.Neighbors[i].ASN >= asn })
	if i < len(a.Neighbors) && a.Neighbors[i].ASN == asn {
		return a.Neighbors[i], true
	}
	return Neighbor{}, false
}

// Customers returns the ASNs of all customers.
func (a *AS) Customers() []bgp.ASN { return a.byRel(RelCustomer) }

// Providers returns the ASNs of all providers.
func (a *AS) Providers() []bgp.ASN { return a.byRel(RelProvider) }

func (a *AS) byRel(rel Relationship) []bgp.ASN {
	var out []bgp.ASN
	for _, n := range a.Neighbors {
		if n.Rel == rel {
			out = append(out, n.ASN)
		}
	}
	return out
}

// Graph is the AS-level topology. Construct with NewGraph and AddAS/AddLink;
// the structure is immutable once handed to the router simulator.
type Graph struct {
	nodes map[bgp.ASN]*AS
	asns  []bgp.ASN // sorted, for deterministic iteration
	links int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[bgp.ASN]*AS)}
}

// AddAS inserts a node. It returns an error if the ASN already exists.
func (g *Graph) AddAS(asn bgp.ASN, tier Tier) error {
	if _, ok := g.nodes[asn]; ok {
		return fmt.Errorf("topology: %v already present", asn)
	}
	g.nodes[asn] = &AS{ASN: asn, Tier: tier}
	i := sort.Search(len(g.asns), func(i int) bool { return g.asns[i] >= asn })
	g.asns = append(g.asns, 0)
	copy(g.asns[i+1:], g.asns[i:])
	g.asns[i] = asn
	return nil
}

// AddLink connects a and b with rel being a's relationship toward b
// (RelCustomer means "b is a's customer"? No: rel is how a sees b, so
// RelCustomer means b is a customer of a). Adding a duplicate or
// self-link is an error.
func (g *Graph) AddLink(a, b bgp.ASN, relAtoB Relationship) error {
	if a == b {
		return fmt.Errorf("topology: self-link on %v", a)
	}
	na, ok := g.nodes[a]
	if !ok {
		return fmt.Errorf("topology: unknown AS %v", a)
	}
	nb, ok := g.nodes[b]
	if !ok {
		return fmt.Errorf("topology: unknown AS %v", b)
	}
	if _, dup := na.Neighbor(b); dup {
		return fmt.Errorf("topology: duplicate link %v-%v", a, b)
	}
	insert := func(n *AS, nb Neighbor) {
		i := sort.Search(len(n.Neighbors), func(i int) bool { return n.Neighbors[i].ASN >= nb.ASN })
		n.Neighbors = append(n.Neighbors, Neighbor{})
		copy(n.Neighbors[i+1:], n.Neighbors[i:])
		n.Neighbors[i] = nb
	}
	insert(na, Neighbor{ASN: b, Rel: relAtoB})
	insert(nb, Neighbor{ASN: a, Rel: relAtoB.Invert()})
	g.links++
	return nil
}

// AS returns the node for asn, or nil.
func (g *Graph) AS(asn bgp.ASN) *AS { return g.nodes[asn] }

// ASNs returns all ASNs in ascending order. The returned slice is shared;
// callers must not modify it.
func (g *Graph) ASNs() []bgp.ASN { return g.asns }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.nodes) }

// Links returns the number of undirected adjacencies.
func (g *Graph) Links() int { return g.links }

// ShouldExport implements the Gao–Rexford (valley-free) export rule: a
// route learned from learnedFrom may be exported to exportTo iff the route
// came from a customer (export to everyone) or the target is a customer.
// Routes an AS originates itself (learnedFrom == RelCustomer by convention
// of the caller passing originated==true) are exported to everyone.
func ShouldExport(learnedFrom Relationship, exportTo Relationship) bool {
	if learnedFrom == RelCustomer {
		return true
	}
	return exportTo == RelCustomer
}

// CustomerCone returns the set of ASNs reachable from asn by descending
// only customer links, including asn itself — the paper uses cone size to
// characterise the inconsistently damping AS behind the 2-minute spike in
// Figure 12.
func (g *Graph) CustomerCone(asn bgp.ASN) map[bgp.ASN]bool {
	cone := make(map[bgp.ASN]bool)
	var walk func(bgp.ASN)
	walk = func(a bgp.ASN) {
		if cone[a] {
			return
		}
		cone[a] = true
		node := g.nodes[a]
		if node == nil {
			return
		}
		for _, n := range node.Neighbors {
			if n.Rel == RelCustomer {
				walk(n.ASN)
			}
		}
	}
	walk(asn)
	return cone
}

// Validate checks structural invariants: relationship symmetry, no
// self-links, sorted adjacency lists, and that every Tier-1 has no
// providers. The generator's output is validated in tests.
func (g *Graph) Validate() error {
	for _, asn := range g.asns {
		node := g.nodes[asn]
		if !sort.SliceIsSorted(node.Neighbors, func(i, j int) bool {
			return node.Neighbors[i].ASN < node.Neighbors[j].ASN
		}) {
			return fmt.Errorf("topology: %v adjacency not sorted", asn)
		}
		for _, n := range node.Neighbors {
			if n.ASN == asn {
				return fmt.Errorf("topology: self-link on %v", asn)
			}
			other := g.nodes[n.ASN]
			if other == nil {
				return fmt.Errorf("topology: %v links to unknown %v", asn, n.ASN)
			}
			back, ok := other.Neighbor(asn)
			if !ok {
				return fmt.Errorf("topology: asymmetric link %v->%v", asn, n.ASN)
			}
			if back.Rel != n.Rel.Invert() {
				return fmt.Errorf("topology: relationship mismatch %v(%v)->%v(%v)",
					asn, n.Rel, n.ASN, back.Rel)
			}
		}
		if node.Tier == TierOne && len(node.Providers()) > 0 {
			return fmt.Errorf("topology: tier-1 %v has a provider", asn)
		}
	}
	return nil
}
