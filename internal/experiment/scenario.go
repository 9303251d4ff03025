// Package experiment assembles the full reproduction pipeline: it builds a
// synthetic Internet with a planted RFD (and ROV) deployment, runs the
// paper's beacon campaigns over the simulated BGP network, collects vantage
// point feeds, labels paths, runs BeCAUSe and the heuristics, and evaluates
// everything against the planted ground truth. One constructor per paper
// table/figure regenerates the corresponding rows or series.
package experiment

import (
	"fmt"
	"sort"
	"time"

	"because/internal/beacon"
	"because/internal/bgp"
	"because/internal/netsim"
	"because/internal/obs"
	"because/internal/rfd"
	"because/internal/router"
	"because/internal/stats"
	"because/internal/topology"
)

// DeployMode describes how an AS applies RFD across its sessions.
type DeployMode uint8

// Deployment modes, covering the heterogeneity § 2.1 documents.
const (
	// DampAll applies RFD on every session.
	DampAll DeployMode = iota
	// DampExceptOne spares a single neighbor (the AS 701 pattern).
	DampExceptOne
	// DampCustomersOnly damps only customer sessions; with beacons close
	// to Tier-1s the beacon signal never crosses such a session in the
	// damped direction, so these deployments are invisible to the study —
	// one of the paper's reasons the 9.1% is only a lower bound.
	DampCustomersOnly
)

// String names the mode.
func (m DeployMode) String() string {
	switch m {
	case DampAll:
		return "all"
	case DampExceptOne:
		return "except-one"
	case DampCustomersOnly:
		return "customers-only"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Deployment is the planted RFD configuration of one AS.
type Deployment struct {
	ASN    bgp.ASN
	Params rfd.Params
	Mode   DeployMode
	// Spared is the neighbor exempted under DampExceptOne.
	Spared bgp.ASN
	// ParamsName is a human-readable preset label for reports.
	ParamsName string
}

// ScenarioConfig controls world construction.
type ScenarioConfig struct {
	Seed uint64
	// Topology generation parameters.
	Topology topology.GenConfig
	// Sites is the number of beacon deployments (paper: 7).
	Sites int
	// VPsPerProject is the number of vantage points per collector project.
	VPsPerProject int
	// RFDShare is the fraction of transit ASes that deploy RFD.
	RFDShare float64
	// VendorDefaultShare is the fraction of dampers on deprecated vendor
	// defaults (paper: ~60%); the rest follow RFC 7454 / RIPE-580.
	VendorDefaultShare float64
	// InconsistentDampers is how many large-cone dampers spare one
	// neighbor (the AS 701 pattern).
	InconsistentDampers int
	// CustomerOnlyDampers is how many dampers damp only customers
	// (invisible to the beacons).
	CustomerOnlyDampers int
	// MaxSuppressMix plants the Figure-13 plateaus: shares of dampers
	// with 10/30/60-minute max-suppress-time (must sum to <= 1; the
	// remainder keeps 60 minutes).
	MaxSuppress10Share, MaxSuppress30Share float64
	// AggressiveShare is the fraction of dampers running the
	// tightened-legacy configuration (long half-life) that damps even
	// 15-minute flapping — what the paper's August 2019 pilot detected.
	AggressiveShare float64
	// BackgroundPrefixes adds this many non-beacon prefixes, owned by
	// random stubs, that churn independently during campaigns (the
	// Internet's ordinary update noise; the paper's Appendix A measures
	// the beacons against it). 0 disables background churn.
	BackgroundPrefixes int
	// ChurnMeanInterval is the mean time between flips of a background
	// prefix (default 30 min when BackgroundPrefixes > 0).
	ChurnMeanInterval time.Duration
	// Workers bounds the concurrency of everything the harness fans out:
	// the chains inside each inference run (core.Config.Workers) and the
	// per-interval campaigns of Suite.PrewarmContext. 0 selects
	// GOMAXPROCS; 1 recovers sequential execution. Results are identical at any setting
	// — the tomography engine pre-splits RNG streams deterministically
	// (see core.Config.Workers) and each campaign's stream depends only on
	// the scenario seed and campaign name.
	Workers int
}

// DefaultScenario returns the standard experiment profile: large enough to
// show every effect, small enough to run all campaigns in seconds.
func DefaultScenario() ScenarioConfig {
	return ScenarioConfig{
		Seed: 2020,
		Topology: topology.GenConfig{
			Tier1:               5,
			Transit:             70,
			Stubs:               160,
			TransitMaxProviders: 3,
			TransitPeerDegree:   1.5,
			StubMaxProviders:    2,
			BaseASN:             10000,
		},
		Sites:               7,
		VPsPerProject:       8,
		RFDShare:            0.5,
		VendorDefaultShare:  0.6,
		InconsistentDampers: 1,
		CustomerOnlyDampers: 1,
		MaxSuppress10Share:  0.2,
		MaxSuppress30Share:  0.2,
	}
}

// Scenario is a constructed world: topology, beacon sites, vantage points
// and the planted RFD deployment (the ground truth).
type Scenario struct {
	Config ScenarioConfig
	Graph  *topology.Graph
	Sites  []beacon.Site
	// VPs lists the vantage points of each collector project.
	VPs []VantagePointSpec
	// Deployments is the ground truth, keyed by ASN.
	Deployments map[bgp.ASN]Deployment
	// Obs, when set, instruments every campaign run over this scenario:
	// collector ingest counters, labeling counters, stage spans, and the
	// inference metrics of Run.InferContext. Nil (the default) is a no-op.
	Obs *obs.Observer

	// nextHops records, from the discovery round, how often each measured
	// AS forwarded a beacon path through each neighbor (toward the origin).
	// The except-one planting uses it to spare a genuinely used session.
	nextHops map[bgp.ASN]map[bgp.ASN]int

	rng *stats.RNG
}

// VantagePointSpec pairs an AS with a project label (mirrors
// collector.VantagePoint without importing it here; the campaign runner
// converts).
type VantagePointSpec struct {
	AS      bgp.ASN
	Project int // index into collector.Projects
}

// Start is the virtual start time of all campaigns.
var Start = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

// NewScenario builds the world deterministically from cfg.Seed, generating
// a synthetic topology from cfg.Topology.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if err := validateShares(cfg); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	g, err := topology.Generate(cfg.Topology, rng.Split())
	if err != nil {
		return nil, err
	}
	return buildScenario(cfg, g, rng)
}

// NewScenarioFromGraph builds the world over an externally supplied
// topology — e.g. a CAIDA as-rel snapshot loaded with topology.ReadCAIDA —
// placing beacon sites, vantage points and the planted deployment on it.
// The graph is extended with the beacon-site stub ASes (65000+), so pass a
// fresh copy if the original must stay untouched.
func NewScenarioFromGraph(cfg ScenarioConfig, g *topology.Graph) (*Scenario, error) {
	if err := validateShares(cfg); err != nil {
		return nil, err
	}
	if g == nil || g.Len() == 0 {
		return nil, fmt.Errorf("experiment: empty topology")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: supplied topology: %w", err)
	}
	rng := stats.NewRNG(cfg.Seed)
	rng.Split() // keep stream positions aligned with NewScenario
	return buildScenario(cfg, g, rng)
}

func validateShares(cfg ScenarioConfig) error {
	if cfg.Sites < 1 {
		return fmt.Errorf("experiment: need at least one site")
	}
	if cfg.RFDShare < 0 || cfg.RFDShare > 1 || cfg.VendorDefaultShare < 0 || cfg.VendorDefaultShare > 1 {
		return fmt.Errorf("experiment: shares must be in [0,1]")
	}
	return nil
}

func buildScenario(cfg ScenarioConfig, g *topology.Graph, rng *stats.RNG) (*Scenario, error) {
	s := &Scenario{
		Config:      cfg,
		Graph:       g,
		Deployments: make(map[bgp.ASN]Deployment),
		rng:         rng,
	}
	if err := s.placeSites(); err != nil {
		return nil, err
	}
	if err := s.placeVPs(); err != nil {
		return nil, err
	}
	s.plantRFD()
	return s, nil
}

// placeSites adds one stub AS per beacon site, multihomed to transit
// providers at most two hops from a Tier-1 (the paper's placement).
func (s *Scenario) placeSites() error {
	// Candidate providers: transits whose provider set includes a Tier-1,
	// putting each beacon exactly two AS hops from the clique (§ 4.3).
	// Tier-1s themselves are excluded: the beacons' direct upstreams are
	// verified RFD-clean, and protecting the whole clique would remove the
	// most important damper candidates (the AS 701 class) from the world.
	var candidates []bgp.ASN
	for _, asn := range s.Graph.ASNs() {
		node := s.Graph.AS(asn)
		if node.Tier != topology.TierTransit {
			continue
		}
		for _, p := range node.Providers() {
			if s.Graph.AS(p).Tier == topology.TierOne {
				candidates = append(candidates, asn)
				break
			}
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("experiment: no site candidates")
	}
	base := bgp.ASN(65000)
	for i := 0; i < s.Config.Sites; i++ {
		asn := base + bgp.ASN(i)
		if err := s.Graph.AddAS(asn, topology.TierStub); err != nil {
			return err
		}
		// Two providers where possible, for path diversity.
		first := candidates[s.rng.Intn(len(candidates))]
		if err := s.Graph.AddLink(first, asn, topology.RelCustomer); err != nil {
			return err
		}
		second := candidates[s.rng.Intn(len(candidates))]
		if second != first {
			if err := s.Graph.AddLink(second, asn, topology.RelCustomer); err != nil {
				return err
			}
		}
		s.Sites = append(s.Sites, beacon.Site{
			Name:  fmt.Sprintf("site-%d", i),
			ASN:   asn,
			Index: i,
		})
	}
	return nil
}

// placeVPs selects vantage-point ASes per project. Real full-feed peers
// range from Tier-1 backbones to small edge networks; the mix matters
// because edge vantage points see long paths that cross the transit middle
// (where the dampers live), while core vantage points overlap heavily
// between projects. Each project gets half "core" VPs (shared windows of
// the highest-degree ASes — the Figure-7 overlap) and half "edge" VPs
// (distinct stubs — each project's unique contribution).
func (s *Scenario) placeVPs() error {
	siteASes := make(map[bgp.ASN]bool, len(s.Sites))
	for _, site := range s.Sites {
		siteASes[site.ASN] = true
	}
	var core, edge []bgp.ASN
	for _, asn := range s.Graph.ASNs() {
		if siteASes[asn] {
			continue
		}
		node := s.Graph.AS(asn)
		if node.Tier == topology.TierOne || (node.Tier == topology.TierTransit && len(node.Neighbors) >= 4) {
			core = append(core, asn)
		} else if node.Tier == topology.TierStub && len(node.Providers()) >= 2 {
			// Multihomed stubs only: a single-homed vantage point behind a
			// damper would see exclusively damped paths and be statistically
			// indistinguishable from the damper itself; real collector
			// peers are network operators with redundant upstreams.
			edge = append(edge, asn)
		}
	}
	sort.Slice(core, func(i, j int) bool {
		di, dj := len(s.Graph.AS(core[i]).Neighbors), len(s.Graph.AS(core[j]).Neighbors)
		if di != dj {
			return di > dj
		}
		return core[i] < core[j]
	})
	s.rng.Shuffle(len(edge), func(i, j int) { edge[i], edge[j] = edge[j], edge[i] })

	nCore := s.Config.VPsPerProject / 2
	nEdge := s.Config.VPsPerProject - nCore
	if len(core) < nCore || len(edge) < 3*nEdge {
		return fmt.Errorf("experiment: VP pools too small (core=%d edge=%d)", len(core), len(edge))
	}
	for proj := 0; proj < 3; proj++ {
		// Core windows shifted by half: adjacent projects share peers.
		offset := proj * nCore / 2
		for k := 0; k < nCore; k++ {
			s.VPs = append(s.VPs, VantagePointSpec{AS: core[(offset+k)%len(core)], Project: proj})
		}
		// Edge VPs are disjoint per project.
		for k := 0; k < nEdge; k++ {
			s.VPs = append(s.VPs, VantagePointSpec{AS: edge[proj*nEdge+k], Project: proj})
		}
	}
	return nil
}

// plantRFD assigns damping policies to transit ASes. Beacon sites, their
// direct providers and vantage-point ASes stay clean, mirroring the paper's
// verified-clean upstreams.
func (s *Scenario) plantRFD() {
	protected := make(map[bgp.ASN]bool)
	for _, site := range s.Sites {
		protected[site.ASN] = true
		for _, p := range s.Graph.AS(site.ASN).Providers() {
			protected[p] = true
		}
	}
	// Vantage-point ASes are NOT protected: route collectors peer with
	// networks of every size, including ones that damp — a damping VP sees
	// its own suppression on every path, and the inference attributes it
	// correctly because the VP AS is the first hop of all its paths.

	// Eligible dampers are transits on actually measured paths: BGP picks
	// one best path per (vantage point, prefix), so a discovery routing
	// round computes the real best-path trees from every site. A damper
	// off those trees is invisible — like an unmeasured AS in the real
	// study — and teaches the experiment nothing. Deployment shares are
	// reported over measured ASes, matching the paper's accounting.
	onPath, totalPaths := s.discoverMeasuredASes()
	var eligible []bgp.ASN
	for _, asn := range s.Graph.ASNs() {
		node := s.Graph.AS(asn)
		if node.Tier == topology.TierStub || protected[asn] || onPath[asn] == 0 {
			continue
		}
		// Transit providers and Tier-1 backbones both deploy RFD in the
		// wild (AS 701 — Verizon — is the paper's flagship inconsistent
		// damper); stubs have no one to damp toward the beacons. The very
		// largest backbones (here: ASes carrying over 25% of measured
		// paths) are excluded — they are the operators who reacted to the
		// 2002-2006 "RFD considered harmful" guidance, and a damper there
		// would push the positive-path share far beyond the ~18% the
		// paper observes.
		if float64(onPath[asn]) > 0.25*float64(totalPaths) {
			continue
		}
		eligible = append(eligible, asn)
	}
	// Deterministic shuffle, then take the leading share as dampers.
	s.rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	nDampers := int(s.Config.RFDShare * float64(len(eligible)))
	if nDampers > len(eligible) {
		nDampers = len(eligible)
	}
	dampers := eligible[:nDampers]

	// The inconsistent (except-one) dampers must actually forward measured
	// beacon paths through at least two different neighbors, so that some
	// paths are damped and others spared — the AS 701 pattern of
	// contradictory per-path evidence. Sort those candidates first, largest
	// customer cones leading (the paper notes the 2-minute spike comes from
	// a single large-cone inconsistent damper).
	usedHops := func(asn bgp.ASN) int { return len(s.nextHops[asn]) }
	sort.Slice(dampers, func(i, j int) bool {
		mi, mj := usedHops(dampers[i]) >= 2, usedHops(dampers[j]) >= 2
		if mi != mj {
			return mi
		}
		ci, cj := len(s.Graph.CustomerCone(dampers[i])), len(s.Graph.CustomerCone(dampers[j]))
		if ci != cj {
			return ci > cj
		}
		return dampers[i] < dampers[j]
	})
	inconsistentLeft := s.Config.InconsistentDampers
	customerOnlyLeft := s.Config.CustomerOnlyDampers
	for _, asn := range dampers {
		d := Deployment{ASN: asn}
		node := s.Graph.AS(asn)
		switch {
		case inconsistentLeft > 0 && len(s.nextHops[asn]) >= 2:
			d.Mode = DampExceptOne
			// Spare the least-used beacon-facing session: the majority of
			// the AS's measured paths are damped, the rest pass — exactly
			// the contradictory evidence of Figure 9(c).
			var spared bgp.ASN
			best := -1
			for nh, n := range s.nextHops[asn] {
				if best == -1 || n < best || (n == best && nh < spared) {
					spared, best = nh, n
				}
			}
			d.Spared = spared
			inconsistentLeft--
		case customerOnlyLeft > 0 && node.Tier == topology.TierTransit:
			// Customers-only damping is the invisible mode only below the
			// beacons' attachment height, i.e. for transits (a Tier-1
			// receives the beacon from a customer chain and would damp it).
			d.Mode = DampCustomersOnly
			customerOnlyLeft--
		default:
			d.Mode = DampAll
		}
		// Parameter mix.
		switch {
		case s.rng.Float64() < s.Config.AggressiveShare:
			d.Params, d.ParamsName = rfd.AggressiveLegacy, "aggressive-legacy"
		case s.rng.Float64() < s.Config.VendorDefaultShare:
			if s.rng.Bernoulli(0.5) {
				d.Params, d.ParamsName = rfd.Cisco, "cisco"
			} else {
				d.Params, d.ParamsName = rfd.Juniper, "juniper"
			}
		default:
			d.Params, d.ParamsName = rfd.RFC7454, "rfc7454"
		}
		// Max-suppress-time mix for the Figure-13 plateaus. A lowered
		// max-suppress-time needs half-life = max-suppress/2 so the ceiling
		// (4x reuse = 3000) still exceeds the suppress threshold AND fast
		// flapping pegs the penalty at the ceiling, making the release land
		// exactly at max-suppress-time. That only holds for the Cisco
		// preset (threshold 2000 < 3000): operators running Juniper or
		// RFC 7454 thresholds cannot meaningfully lower max-suppress, so
		// the mix applies to Cisco-default dampers only.
		if d.ParamsName == "cisco" {
			r := s.rng.Float64()
			switch {
			case r < s.Config.MaxSuppress10Share:
				d.Params.MaxSuppressTime = 10 * time.Minute
				d.Params.HalfLife = d.Params.MaxSuppressTime / 2
			case r < s.Config.MaxSuppress10Share+s.Config.MaxSuppress30Share:
				d.Params.MaxSuppressTime = 30 * time.Minute
				d.Params.HalfLife = d.Params.MaxSuppressTime / 2
			}
		}
		if !d.Params.CanSuppress() {
			// Defensive: never plant a dead configuration.
			d.Params.MaxSuppressTime = 60 * time.Minute
			d.Params.HalfLife = 15 * time.Minute
		}
		s.Deployments[asn] = d
	}
}

// discoverMeasuredASes runs one static routing round (no flapping, no
// damping): every site announces one probe prefix and each vantage point's
// selected best path is recorded. It returns how many (vp, site) paths
// each AS appears on, plus the total path count.
func (s *Scenario) discoverMeasuredASes() (counts map[bgp.ASN]int, totalPaths int) {
	eng := netsim.NewEngine(Start.Add(-24 * time.Hour))
	net := router.New(eng, s.Graph, router.Options{}, s.rng.Split())
	for i, site := range s.Sites {
		if err := net.Originate(site.ASN, beacon.SitePrefix(site.Index, 0), uint32(i)); err != nil {
			// Sites were added by placeSites; this cannot fail.
			panic(err)
		}
	}
	eng.Run()
	// Only the settled best paths count: transient exploration during
	// convergence crosses ASes that never carry steady-state routes.
	counts = make(map[bgp.ASN]int)
	s.nextHops = make(map[bgp.ASN]map[bgp.ASN]int)
	for _, vp := range s.VPs {
		for _, site := range s.Sites {
			path, ok := net.Router(vp.AS).Best(beacon.SitePrefix(site.Index, 0))
			if !ok {
				continue
			}
			totalPaths++
			clean := path.Clean()
			for i, a := range clean {
				counts[a]++
				if i+1 < len(clean) {
					if s.nextHops[a] == nil {
						s.nextHops[a] = make(map[bgp.ASN]int)
					}
					s.nextHops[a][clean[i+1]]++
				}
			}
		}
	}
	return counts, totalPaths
}

// RFDPolicyFor returns the router policy implementing the planted
// deployment of asn (nil when the AS does not damp).
func (s *Scenario) RFDPolicyFor(asn bgp.ASN) *router.RFDPolicy {
	d, ok := s.Deployments[asn]
	if !ok {
		return nil
	}
	pol := &router.RFDPolicy{Params: d.Params}
	switch d.Mode {
	case DampExceptOne:
		spared := d.Spared
		pol.DampNeighbor = func(nb bgp.ASN, rel topology.Relationship) bool { return nb != spared }
	case DampCustomersOnly:
		pol.DampNeighbor = func(nb bgp.ASN, rel topology.Relationship) bool {
			return rel == topology.RelCustomer
		}
	}
	return pol
}

// TrueDampers returns the ASNs of all planted dampers (any mode), sorted.
func (s *Scenario) TrueDampers() []bgp.ASN {
	var out []bgp.ASN
	for asn := range s.Deployments {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DetectableDampers returns planted dampers whose configuration the beacon
// setup can in principle observe. A customers-only damper is invisible
// unless a beacon site sits inside its customer cone — only then does it
// receive beacon routes over a damped (customer) session.
func (s *Scenario) DetectableDampers() []bgp.ASN {
	var out []bgp.ASN
	for asn, d := range s.Deployments {
		if d.Mode == DampCustomersOnly {
			cone := s.Graph.CustomerCone(asn)
			visible := false
			for _, site := range s.Sites {
				if cone[site.ASN] {
					visible = true
					break
				}
			}
			if !visible {
				continue
			}
		}
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
