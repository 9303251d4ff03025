// Package rov implements the RPKI Route Origin Validation substrate used
// by the paper's § 7 generalisation experiment: a ROA table with RFC 6811
// validation semantics, an import filter for the router simulator that
// drops invalid routes at ROV-enabled ASes, and the synthetic labeled
// dataset construction the paper uses to benchmark BeCAUSe on ROV
// (paths labeled positive when a known ROV AS is on them).
package rov

import (
	"fmt"

	"because/internal/bgp"
	"because/internal/core"
	"because/internal/router"
)

// Validity is the RFC 6811 route validation state.
type Validity int

// Validation states.
const (
	NotFound Validity = iota
	Valid
	Invalid
)

// String names the validity.
func (v Validity) String() string {
	switch v {
	case NotFound:
		return "not-found"
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("validity(%d)", int(v))
	}
}

// ROA is one Route Origin Authorization: origin may announce prefix and
// its sub-prefixes up to MaxLength.
type ROA struct {
	Prefix    bgp.Prefix
	MaxLength int
	Origin    bgp.ASN
}

// Table is a set of ROAs.
type Table struct {
	roas []ROA
}

// Add registers a ROA. MaxLength 0 defaults to the prefix length; a
// MaxLength shorter than the prefix or beyond /32 is an error.
func (t *Table) Add(r ROA) error {
	if !r.Prefix.IsValid() {
		return fmt.Errorf("rov: invalid prefix in ROA")
	}
	if r.MaxLength == 0 {
		r.MaxLength = r.Prefix.Bits()
	}
	if r.MaxLength < r.Prefix.Bits() || r.MaxLength > 32 {
		return fmt.Errorf("rov: bad max length %d for %v", r.MaxLength, r.Prefix)
	}
	t.roas = append(t.roas, r)
	return nil
}

// Validate classifies a route per RFC 6811: Valid if a covering ROA
// authorises the origin at this length; Invalid if covered by at least one
// ROA but authorised by none; NotFound when no ROA covers the prefix.
func (t *Table) Validate(prefix bgp.Prefix, origin bgp.ASN) Validity {
	covered := false
	for _, r := range t.roas {
		if !r.Prefix.Overlaps(prefix) || r.Prefix.Bits() > prefix.Bits() {
			continue
		}
		if !r.Prefix.Contains(prefix.Addr()) {
			continue
		}
		covered = true
		if r.Origin == origin && prefix.Bits() <= r.MaxLength {
			return Valid
		}
	}
	if covered {
		return Invalid
	}
	return NotFound
}

// ImportFilter returns a router import filter that makes every AS in
// rovASes drop Invalid routes (NotFound and Valid are accepted, the
// standard deployed policy).
func ImportFilter(table *Table, rovASes map[bgp.ASN]bool) router.ImportFilter {
	return func(owner bgp.ASN, prefix bgp.Prefix, path bgp.Path) bool {
		if !rovASes[owner] {
			return true
		}
		origin, ok := path.Origin()
		if !ok {
			return false
		}
		return table.Validate(prefix, origin) != Invalid
	}
}

// LabelPaths builds the § 7 benchmark dataset: every path is labeled
// positive ("shows ROV") when at least one AS of its tomography portion is
// a known ROV AS. The origin is excluded, matching the RFD convention: the
// announcing AS cannot filter its own beacon.
func LabelPaths(paths [][]bgp.ASN, rovASes map[bgp.ASN]bool) []core.PathObs {
	var out []core.PathObs
	for _, p := range paths {
		if len(p) == 0 {
			continue
		}
		tomo := p[:len(p)-1]
		if len(tomo) == 0 {
			continue
		}
		positive := false
		for _, a := range tomo {
			if rovASes[a] {
				positive = true
				break
			}
		}
		out = append(out, core.PathObs{ASNs: tomo, Positive: positive})
	}
	return out
}
