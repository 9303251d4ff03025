package topology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"because/internal/bgp"
)

// CAIDA serial-1 AS-relationship format: one "<a>|<b>|<rel>" line per link,
// where rel -1 means a is the provider of b and 0 means a and b peer.
// Comment lines start with '#'. This is the format of the public CAIDA
// as-rel datasets, so real Internet snapshots can be loaded into the
// simulator (tiers are then inferred: no providers and peers only = Tier-1;
// customers but also providers = transit; no customers = stub).
const caidaProvider = -1

// WriteCAIDA serialises the graph in the CAIDA serial-1 format, links in
// deterministic order.
//
//lint:allow deadcode test oracle: emits the serial-1 text that ReadCAIDA round-trips
func (g *Graph) WriteCAIDA(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# AS relationships: <provider-as>|<customer-as>|-1 or <peer-as>|<peer-as>|0"); err != nil {
		return err
	}
	for _, asn := range g.ASNs() {
		node := g.AS(asn)
		for _, nb := range node.Neighbors {
			switch nb.Rel {
			case RelCustomer:
				if _, err := fmt.Fprintf(bw, "%d|%d|-1\n", uint32(asn), uint32(nb.ASN)); err != nil {
					return err
				}
			case RelPeer:
				// Emit each peering once, from the lower ASN.
				if asn < nb.ASN {
					if _, err := fmt.Fprintf(bw, "%d|%d|0\n", uint32(asn), uint32(nb.ASN)); err != nil {
						return err
					}
				}
			}
		}
	}
	return bw.Flush()
}

// ReadCAIDA parses a CAIDA serial-1 relationship file into a Graph,
// inferring tiers from the link structure.
func ReadCAIDA(r io.Reader) (*Graph, error) {
	type link struct {
		a, b bgp.ASN
		rel  int
	}
	var links []link
	seen := make(map[bgp.ASN]bool)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) < 3 {
			return nil, fmt.Errorf("topology: caida line %d: %q", lineNo, line)
		}
		a64, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("topology: caida line %d: %w", lineNo, err)
		}
		b64, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("topology: caida line %d: %w", lineNo, err)
		}
		rel, err := strconv.Atoi(fields[2])
		if err != nil || (rel != caidaProvider && rel != 0) {
			return nil, fmt.Errorf("topology: caida line %d: bad relationship %q", lineNo, fields[2])
		}
		l := link{a: bgp.ASN(a64), b: bgp.ASN(b64), rel: rel}
		links = append(links, l)
		seen[l.a] = true
		seen[l.b] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// First pass: degrees for tier inference.
	providersOf := make(map[bgp.ASN]int)
	customersOf := make(map[bgp.ASN]int)
	for _, l := range links {
		if l.rel == caidaProvider {
			customersOf[l.a]++
			providersOf[l.b]++
		}
	}
	tierOf := func(asn bgp.ASN) Tier {
		switch {
		case providersOf[asn] == 0 && customersOf[asn] > 0:
			return TierOne
		case customersOf[asn] > 0:
			return TierTransit
		default:
			return TierStub
		}
	}

	g := NewGraph()
	var asns []bgp.ASN
	for asn := range seen {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		if err := g.AddAS(asn, tierOf(asn)); err != nil {
			return nil, err
		}
	}
	for _, l := range links {
		rel := RelPeer
		if l.rel == caidaProvider {
			rel = RelCustomer // b is a's customer
		}
		if err := g.AddLink(l.a, l.b, rel); err != nil {
			return nil, fmt.Errorf("topology: caida link %d|%d: %w", uint32(l.a), uint32(l.b), err)
		}
	}
	return g, nil
}
