package bgp

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewPathBasics(t *testing.T) {
	p := NewPath(64500, 64501, 64502)
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
	if first, _ := p.First(); first != 64500 {
		t.Errorf("First = %v", first)
	}
	if origin, _ := p.Origin(); origin != 64502 {
		t.Errorf("Origin = %v", origin)
	}
	if p.String() != "64500 64501 64502" {
		t.Errorf("String = %q", p.String())
	}
}

func TestEmptyPath(t *testing.T) {
	var p Path
	if p.Len() != 0 {
		t.Error("empty path length")
	}
	if _, ok := p.First(); ok {
		t.Error("First on empty path should report !ok")
	}
	if _, ok := p.Origin(); ok {
		t.Error("Origin on empty path should report !ok")
	}
	if p.HasLoop() {
		t.Error("empty path has no loop")
	}
	if got := p.Clean(); len(got) != 0 {
		t.Errorf("Clean of empty = %v", got)
	}
}

func TestPathLenCountsSetAsOne(t *testing.T) {
	p := Path{Segments: []Segment{
		{Type: SegSequence, ASNs: []ASN{1, 2}},
		{Type: SegSet, ASNs: []ASN{3, 4, 5}},
	}}
	if p.Len() != 3 {
		t.Errorf("Len with AS_SET = %d, want 3", p.Len())
	}
}

func TestPrepend(t *testing.T) {
	p := NewPath(100, 200)
	q := p.Prepend(99, 3)
	want := []ASN{99, 99, 99, 100, 200}
	if !reflect.DeepEqual(q.ASNs(), want) {
		t.Errorf("Prepend = %v, want %v", q.ASNs(), want)
	}
	// Original untouched.
	if !reflect.DeepEqual(p.ASNs(), []ASN{100, 200}) {
		t.Errorf("Prepend mutated receiver: %v", p.ASNs())
	}
	// Prepending to an empty path creates a sequence.
	e := Path{}.Prepend(7, 1)
	if !reflect.DeepEqual(e.ASNs(), []ASN{7}) {
		t.Errorf("Prepend to empty = %v", e.ASNs())
	}
	// Zero count is a no-op copy.
	if z := p.Prepend(1, 0); !z.Equal(p) {
		t.Error("Prepend count 0 changed path")
	}
}

func TestPrependOntoSetSegment(t *testing.T) {
	p := Path{Segments: []Segment{{Type: SegSet, ASNs: []ASN{5, 6}}}}
	q := p.Prepend(9, 2)
	if len(q.Segments) != 2 || q.Segments[0].Type != SegSequence {
		t.Fatalf("expected new sequence segment, got %+v", q.Segments)
	}
	if !reflect.DeepEqual(q.ASNs(), []ASN{9, 9, 5, 6}) {
		t.Errorf("ASNs = %v", q.ASNs())
	}
}

func TestContainsAndLoops(t *testing.T) {
	p := NewPath(1, 2, 3)
	if !p.Contains(2) || p.Contains(9) {
		t.Error("Contains wrong")
	}
	if p.HasLoop() {
		t.Error("no loop expected")
	}
	// Adjacent repeats (prepending) are not loops.
	if NewPath(1, 2, 2, 2, 3).HasLoop() {
		t.Error("prepending flagged as loop")
	}
	// A genuine loop.
	if !NewPath(1, 2, 3, 2).HasLoop() {
		t.Error("loop not detected")
	}
}

func TestClean(t *testing.T) {
	p := NewPath(10, 10, 20, 30, 30, 30, 40)
	want := []ASN{10, 20, 30, 40}
	if got := p.Clean(); !reflect.DeepEqual(got, want) {
		t.Errorf("Clean = %v, want %v", got, want)
	}
}

func TestCleanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		asns := make([]ASN, len(raw))
		for i, v := range raw {
			asns[i] = ASN(v%8 + 1) // force repeats
		}
		cleaned := NewPath(asns...).Clean()
		// No two adjacent entries equal.
		for i := 1; i < len(cleaned); i++ {
			if cleaned[i] == cleaned[i-1] {
				return false
			}
		}
		// Cleaning is idempotent.
		again := NewPath(cleaned...).Clean()
		return reflect.DeepEqual(again, cleaned)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathEqualAndClone(t *testing.T) {
	p := Path{Segments: []Segment{
		{Type: SegSequence, ASNs: []ASN{1, 2}},
		{Type: SegSet, ASNs: []ASN{3}},
	}}
	q := p.Clone()
	if !p.Equal(q) {
		t.Error("clone not equal")
	}
	q.Segments[0].ASNs[0] = 99
	if p.Equal(q) {
		t.Error("clone aliases original storage")
	}
	if p.Equal(NewPath(1, 2, 3)) {
		t.Error("different structure reported equal")
	}
}

func TestPathStringWithSet(t *testing.T) {
	p := Path{Segments: []Segment{
		{Type: SegSequence, ASNs: []ASN{1, 2}},
		{Type: SegSet, ASNs: []ASN{3, 4}},
	}}
	if got := p.String(); got != "1 2 {3 4}" {
		t.Errorf("String = %q", got)
	}
}

func TestPathKey(t *testing.T) {
	if got := PathKey([]ASN{1, 22, 333}); got != "1 22 333" {
		t.Errorf("PathKey = %q", got)
	}
	if PathKey(nil) != "" {
		t.Error("PathKey(nil) should be empty")
	}
}

func TestASNString(t *testing.T) {
	if ASN(64500).String() != "AS64500" {
		t.Errorf("ASN.String = %q", ASN(64500).String())
	}
}

func TestCommunityString(t *testing.T) {
	c := MakeCommunity(65000, 120)
	if c.String() != "65000:120" {
		t.Errorf("Community = %q", c.String())
	}
}

func TestUpdateStringForms(t *testing.T) {
	u := &Update{}
	if u.String() != "UPDATE (empty)" {
		t.Errorf("empty form = %q", u.String())
	}
	u.Withdrawn = []Prefix{MustPrefix("10.0.0.0/24")}
	if !u.IsWithdrawalOnly() {
		t.Error("IsWithdrawalOnly")
	}
	u.NLRI = []Prefix{MustPrefix("10.1.0.0/24")}
	if u.IsWithdrawalOnly() {
		t.Error("announce+withdraw misreported as withdrawal-only")
	}
}
