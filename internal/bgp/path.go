package bgp

import (
	"fmt"
	"strings"
)

// SegmentType is the AS_PATH segment kind.
type SegmentType uint8

// AS_PATH segment types (RFC 4271 § 4.3, path attribute b).
const (
	SegSet      SegmentType = 1
	SegSequence SegmentType = 2
)

// Segment is one AS_PATH segment: an ordered sequence or an unordered set
// of ASNs.
type Segment struct {
	Type SegmentType
	ASNs []ASN
}

// Path is a BGP AS_PATH: a list of segments. The common case — and the only
// one the simulator produces — is a single AS_SEQUENCE, but the codec and
// the cleaning helpers handle AS_SETs because collector archives contain
// them.
type Path struct {
	Segments []Segment
}

// Clone returns a deep copy.
func (p Path) Clone() Path {
	segs := make([]Segment, len(p.Segments))
	for i, s := range p.Segments {
		segs[i] = Segment{Type: s.Type, ASNs: append([]ASN(nil), s.ASNs...)}
	}
	return Path{Segments: segs}
}

// Len returns the AS_PATH length as used by the BGP decision process: each
// sequence member counts 1 and each AS_SET counts 1 in total (RFC 4271
// § 9.1.2.2).
func (p Path) Len() int {
	n := 0
	for _, s := range p.Segments {
		if s.Type == SegSet {
			n++
		} else {
			n += len(s.ASNs)
		}
	}
	return n
}

// ASNs returns every AS in the path in wire order, flattening segments.
func (p Path) ASNs() []ASN {
	var out []ASN
	for _, s := range p.Segments {
		out = append(out, s.ASNs...)
	}
	return out
}

// Origin returns the rightmost AS — the route's originator — and true, or
// false for an empty path.
func (p Path) Origin() (ASN, bool) {
	for i := len(p.Segments) - 1; i >= 0; i-- {
		s := p.Segments[i]
		if len(s.ASNs) > 0 {
			return s.ASNs[len(s.ASNs)-1], true
		}
	}
	return 0, false
}

// Prepend returns a copy of the path with asn prepended count times, the
// operation a speaker performs when exporting a route to an eBGP peer.
func (p Path) Prepend(asn ASN, count int) Path {
	c := p.Clone()
	if count <= 0 {
		return c
	}
	block := make([]ASN, count)
	for i := range block {
		block[i] = asn
	}
	if len(c.Segments) > 0 && c.Segments[0].Type == SegSequence {
		c.Segments[0].ASNs = append(block, c.Segments[0].ASNs...)
		return c
	}
	c.Segments = append([]Segment{{Type: SegSequence, ASNs: block}}, c.Segments...)
	return c
}

// Contains reports whether asn appears anywhere in the path; the simulator's
// loop-prevention check.
func (p Path) Contains(asn ASN) bool {
	for _, s := range p.Segments {
		for _, a := range s.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// HasLoop reports whether any AS appears in two non-adjacent positions
// (adjacent repeats are prepending, not loops).
func (p Path) HasLoop() bool {
	asns := p.ASNs()
	last := make(map[ASN]int)
	for i, a := range asns {
		if j, ok := last[a]; ok && i-j > 1 {
			return true
		}
		last[a] = i
	}
	return false
}

// Clean returns the path with AS-path prepending removed (consecutive
// duplicates collapsed) as a flat ASN slice. This is the path form the
// labeling stage and the tomography operate on (§ 4.2 of the paper: "Paths
// are cleaned by removing AS path prepending").
func (p Path) Clean() []ASN {
	var out []ASN
	for _, a := range p.ASNs() {
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// Equal reports deep equality of two paths.
func (p Path) Equal(q Path) bool {
	if len(p.Segments) != len(q.Segments) {
		return false
	}
	for i := range p.Segments {
		a, b := p.Segments[i], q.Segments[i]
		if a.Type != b.Type || len(a.ASNs) != len(b.ASNs) {
			return false
		}
		for j := range a.ASNs {
			if a.ASNs[j] != b.ASNs[j] {
				return false
			}
		}
	}
	return true
}

// String renders the path as a space-separated ASN list, with sets braced.
func (p Path) String() string {
	var b strings.Builder
	for i, s := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Type == SegSet {
			b.WriteByte('{')
		}
		for j, a := range s.ASNs {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", uint32(a))
		}
		if s.Type == SegSet {
			b.WriteByte('}')
		}
	}
	return b.String()
}

// PathKey returns a canonical string key for a cleaned AS path, suitable as
// a map key when grouping measurements per path.
func PathKey(asns []ASN) string {
	var b strings.Builder
	for i, a := range asns {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", uint32(a))
	}
	return b.String()
}
