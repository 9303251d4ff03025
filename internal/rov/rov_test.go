package rov

import (
	"testing"
	"time"

	"because/internal/bgp"
	"because/internal/netsim"
	"because/internal/router"
	"because/internal/stats"
	"because/internal/topology"
)

func TestTableValidate(t *testing.T) {
	var tbl Table
	if err := tbl.Add(ROA{Prefix: bgp.MustPrefix("203.0.113.0/24"), Origin: 65010}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ROA{Prefix: bgp.MustPrefix("198.51.100.0/22"), MaxLength: 24, Origin: 65020}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		prefix string
		origin bgp.ASN
		want   Validity
	}{
		{"203.0.113.0/24", 65010, Valid},
		{"203.0.113.0/24", 65011, Invalid}, // covered, wrong origin
		{"203.0.113.0/25", 65010, Invalid}, // longer than max length
		{"198.51.100.0/24", 65020, Valid},  // within max length
		{"198.51.100.0/23", 65020, Valid},
		{"198.51.100.0/25", 65020, Invalid}, // beyond max length
		{"198.51.100.0/24", 65099, Invalid}, // wrong origin
		{"192.0.2.0/24", 65010, NotFound},   // uncovered
	}
	for _, c := range cases {
		got := tbl.Validate(bgp.MustPrefix(c.prefix), c.origin)
		if got != c.want {
			t.Errorf("Validate(%s, %v) = %v, want %v", c.prefix, c.origin, got, c.want)
		}
	}
}

func TestTableAddValidation(t *testing.T) {
	var tbl Table
	if err := tbl.Add(ROA{}); err == nil {
		t.Error("invalid prefix accepted")
	}
	if err := tbl.Add(ROA{Prefix: bgp.MustPrefix("10.0.0.0/24"), MaxLength: 8}); err == nil {
		t.Error("max length < prefix length accepted")
	}
	if err := tbl.Add(ROA{Prefix: bgp.MustPrefix("10.0.0.0/24"), MaxLength: 40}); err == nil {
		t.Error("max length > 32 accepted")
	}
	// Default max length = prefix length.
	if err := tbl.Add(ROA{Prefix: bgp.MustPrefix("10.0.0.0/24"), Origin: 1}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Validate(bgp.MustPrefix("10.0.0.0/25"), 1); got != Invalid {
		t.Errorf("sub-prefix with default max length = %v", got)
	}
}

func TestValidityString(t *testing.T) {
	if NotFound.String() != "not-found" || Valid.String() != "valid" ||
		Invalid.String() != "invalid" || Validity(9).String() != "validity(9)" {
		t.Error("Validity.String wrong")
	}
}

func TestImportFilterDropsInvalidAtROVAS(t *testing.T) {
	// Chain 1-2-3; AS2 runs ROV; AS3 originates a prefix whose ROA names a
	// different origin (an "RPKI-invalid beacon").
	g := topology.NewGraph()
	for asn, tier := range map[bgp.ASN]topology.Tier{1: topology.TierOne, 2: topology.TierTransit, 3: topology.TierStub} {
		if err := g.AddAS(asn, tier); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct{ a, b bgp.ASN }{{1, 2}, {2, 3}} {
		if err := g.AddLink(l.a, l.b, topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	invalid := bgp.MustPrefix("203.0.113.0/24")
	valid := bgp.MustPrefix("198.51.100.0/24")
	var tbl Table
	if err := tbl.Add(ROA{Prefix: invalid, Origin: 9999}); err != nil { // not AS3!
		t.Fatal(err)
	}
	if err := tbl.Add(ROA{Prefix: valid, Origin: 3}); err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine(time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC))
	net := router.New(eng, g, router.Options{
		LinkDelay:    func(a, b bgp.ASN, rng *stats.RNG) time.Duration { return time.Millisecond },
		MRAI:         func(asn bgp.ASN, rng *stats.RNG) time.Duration { return 0 },
		ImportFilter: ImportFilter(&tbl, map[bgp.ASN]bool{2: true}),
	}, stats.NewRNG(1))
	if err := net.Originate(3, invalid, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Originate(3, valid, 2); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := net.Router(1).Best(invalid); ok {
		t.Error("invalid route crossed the ROV AS")
	}
	if _, ok := net.Router(1).Best(valid); !ok {
		t.Error("valid route dropped")
	}
	// A NotFound prefix must pass (standard policy drops only Invalid).
	nf := bgp.MustPrefix("192.0.2.0/24")
	if err := net.Originate(3, nf, 3); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if _, ok := net.Router(1).Best(nf); !ok {
		t.Error("not-found route dropped")
	}
}

func TestLabelPaths(t *testing.T) {
	rovSet := map[bgp.ASN]bool{5: true}
	paths := [][]bgp.ASN{
		{1, 5, 9}, // positive: 5 on tomography portion
		{1, 6, 9}, // negative
		{1, 5},    // tomography portion {1}: negative (5 is the origin)
		{9},       // tomography portion empty: skipped
		{},        // skipped
	}
	obs := LabelPaths(paths, rovSet)
	if len(obs) != 3 {
		t.Fatalf("obs = %d", len(obs))
	}
	if !obs[0].Positive || obs[1].Positive || obs[2].Positive {
		t.Errorf("labels = %v %v %v", obs[0].Positive, obs[1].Positive, obs[2].Positive)
	}
	if len(obs[0].ASNs) != 2 {
		t.Errorf("tomography path = %v", obs[0].ASNs)
	}
}
