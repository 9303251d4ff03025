package experiment

import (
	"bytes"
	"context"
	"testing"
	"time"

	"because/internal/bgp"
	"because/internal/rfd"
	"because/internal/stats"
	"because/internal/topology"
)

// smallScenario keeps unit tests fast.
func smallScenario(t *testing.T) *Scenario {
	t.Helper()
	cfg := DefaultScenario()
	// An arbitrary seed chosen (like the paper's simulation seeds) to give
	// this tiny world a recoverable planted deployment.
	cfg.Seed = 11
	cfg.Topology.Transit = 30
	cfg.Topology.Stubs = 60
	cfg.Sites = 3
	cfg.VPsPerProject = 4
	cfg.RFDShare = 0.5
	cfg.CustomerOnlyDampers = 1
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewScenarioStructure(t *testing.T) {
	s := smallScenario(t)
	if err := s.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Sites) != 3 {
		t.Errorf("sites = %d", len(s.Sites))
	}
	if len(s.VPs) != 3*s.Config.VPsPerProject {
		t.Errorf("vps = %d", len(s.VPs))
	}
	// Sites are stubs with at least one provider.
	for _, site := range s.Sites {
		node := s.Graph.AS(site.ASN)
		if node == nil {
			t.Fatalf("site %v missing from graph", site.ASN)
		}
		if node.Tier != topology.TierStub || len(node.Providers()) == 0 {
			t.Errorf("site %v: tier=%v providers=%d", site.ASN, node.Tier, len(node.Providers()))
		}
	}
	if len(s.Deployments) == 0 {
		t.Fatal("no RFD planted")
	}
	// Protected ASes (sites, their providers, VPs) never damp.
	for _, site := range s.Sites {
		if _, ok := s.Deployments[site.ASN]; ok {
			t.Errorf("beacon site %v damps", site.ASN)
		}
		for _, p := range s.Graph.AS(site.ASN).Providers() {
			if _, ok := s.Deployments[p]; ok {
				t.Errorf("site provider %v damps", p)
			}
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	a := smallScenario(t)
	b := smallScenario(t)
	if len(a.Deployments) != len(b.Deployments) {
		t.Fatalf("deployments differ: %d vs %d", len(a.Deployments), len(b.Deployments))
	}
	for asn, da := range a.Deployments {
		db, ok := b.Deployments[asn]
		if !ok || da.Mode != db.Mode || da.ParamsName != db.ParamsName ||
			da.Params.MaxSuppressTime != db.Params.MaxSuppressTime {
			t.Fatalf("deployment of %v differs: %+v vs %+v", asn, da, db)
		}
	}
}

func TestScenarioModes(t *testing.T) {
	s := smallScenario(t)
	counts := map[DeployMode]int{}
	for _, d := range s.Deployments {
		counts[d.Mode]++
	}
	// Special modes are assigned best-effort (bounded by eligible ASes
	// with the required shape), and every damper must satisfy its mode's
	// structural requirements.
	if counts[DampExceptOne] > s.Config.InconsistentDampers {
		t.Errorf("except-one dampers = %d", counts[DampExceptOne])
	}
	if counts[DampCustomersOnly] > s.Config.CustomerOnlyDampers {
		t.Errorf("customers-only dampers = %d", counts[DampCustomersOnly])
	}
	if counts[DampAll] == 0 {
		t.Error("no damp-all deployments")
	}
	for _, d := range s.Deployments {
		node := s.Graph.AS(d.ASN)
		if d.Mode == DampExceptOne {
			if d.Spared == 0 {
				t.Errorf("except-one damper %v has no spared neighbor", d.ASN)
			} else if _, ok := node.Neighbor(d.Spared); !ok {
				t.Errorf("except-one damper %v spares non-neighbor %v", d.ASN, d.Spared)
			}
		}
		if d.Mode == DampCustomersOnly && node.Tier != topology.TierTransit {
			t.Errorf("customers-only damper %v is not a transit", d.ASN)
		}
	}
	// Detectable = all minus customers-only.
	if got, want := len(s.DetectableDampers()), len(s.TrueDampers())-counts[DampCustomersOnly]; got != want {
		t.Errorf("detectable = %d, want %d", got, want)
	}
}

func TestRFDPolicyFor(t *testing.T) {
	s := smallScenario(t)
	// Plant a synthetic except-one deployment so the policy translation is
	// tested regardless of what the scenario randomness produced.
	probe := bgp.ASN(424242)
	exceptOne := &Deployment{ASN: probe, Mode: DampExceptOne, Spared: 7, Params: rfd.Cisco}
	s.Deployments[probe] = *exceptOne
	pol := s.RFDPolicyFor(exceptOne.ASN)
	if pol == nil || pol.DampNeighbor == nil {
		t.Fatal("except-one policy missing filter")
	}
	if pol.DampNeighbor(exceptOne.Spared, topology.RelPeer) {
		t.Error("spared neighbor still damped")
	}
	if !pol.DampNeighbor(exceptOne.Spared+1, topology.RelPeer) {
		t.Error("other neighbor not damped")
	}
	if s.RFDPolicyFor(bgp.ASN(1)) != nil {
		t.Error("non-damper has a policy")
	}
}

func TestScenarioValidation(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Sites = 0
	if _, err := NewScenario(cfg); err == nil {
		t.Error("zero sites accepted")
	}
	cfg = DefaultScenario()
	cfg.RFDShare = 1.5
	if _, err := NewScenario(cfg); err == nil {
		t.Error("bad share accepted")
	}
}

func TestDeployModeString(t *testing.T) {
	if DampAll.String() != "all" || DampExceptOne.String() != "except-one" ||
		DampCustomersOnly.String() != "customers-only" || DeployMode(9).String() == "" {
		t.Error("DeployMode.String wrong")
	}
}

func TestIntervalCampaign(t *testing.T) {
	fast := IntervalCampaign(time.Minute, 3)
	if fast.BreakLen != 6*time.Hour {
		t.Errorf("fast break = %v", fast.BreakLen)
	}
	slow := IntervalCampaign(10*time.Minute, 3)
	if slow.BreakLen != 2*time.Hour {
		t.Errorf("slow break = %v", slow.BreakLen)
	}
	if err := fast.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSeedRobustness guards against seed-tuning: across several seeds the
// small scenario keeps finding planted dampers with high precision.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	for _, seed := range []uint64{5, 13, 424242} {
		cfg := DefaultScenario()
		cfg.Seed = seed
		cfg.Topology.Transit = 30
		cfg.Topology.Stubs = 60
		cfg.Sites = 3
		cfg.VPsPerProject = 4
		cfg.RFDShare = 0.5
		cfg.CustomerOnlyDampers = 1
		s, err := NewScenario(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		run, err := s.RunCampaignContext(context.Background(), IntervalCampaign(time.Minute, 2))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, _, err := run.InferContext(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tp, fp := 0, 0
		for _, sum := range res.Positives() {
			if _, planted := s.Deployments[sum.ASN]; planted {
				tp++
			} else {
				fp++
			}
		}
		if tp+fp > 0 && float64(fp)/float64(tp+fp) > 0.34 {
			t.Errorf("seed %d: %d FPs of %d flagged", seed, fp, tp+fp)
		}
		t.Logf("seed %d: flagged %d (tp=%d fp=%d) of %d planted",
			seed, tp+fp, tp, fp, len(s.Deployments))
	}
}

func TestNewScenarioFromGraph(t *testing.T) {
	// A scenario over an externally built (CAIDA-style) topology.
	gen := DefaultScenario().Topology
	gen.Transit, gen.Stubs = 30, 70
	g, err := topology.Generate(gen, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultScenario()
	cfg.Sites = 3
	cfg.VPsPerProject = 4
	cfg.RFDShare = 0.6
	cfg.CustomerOnlyDampers = 0
	s, err := NewScenarioFromGraph(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sites) != 3 || len(s.Deployments) == 0 {
		t.Fatalf("sites=%d deployments=%d", len(s.Sites), len(s.Deployments))
	}
	run, err := s.RunCampaignContext(context.Background(), IntervalCampaign(time.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Measurements) == 0 {
		t.Fatal("no measurements over external topology")
	}

	// Round-tripping the graph through the CAIDA format yields the same
	// scenario skeleton (same seed, same measured world).
	var buf bytes.Buffer
	g2, err := topology.Generate(gen, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.WriteCAIDA(&buf); err != nil {
		t.Fatal(err)
	}
	g3, err := topology.ReadCAIDA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewScenarioFromGraph(cfg, g3)
	if err != nil {
		t.Fatal(err)
	}
	// Tier re-inference can reclassify customer-less transits as stubs,
	// shifting placement slightly; the scenario must still be viable.
	if len(s2.Deployments) == 0 {
		t.Error("no deployments over round-tripped topology")
	}

	// Validation of bad inputs.
	if _, err := NewScenarioFromGraph(cfg, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewScenarioFromGraph(cfg, topology.NewGraph()); err == nil {
		t.Error("empty graph accepted")
	}
}
