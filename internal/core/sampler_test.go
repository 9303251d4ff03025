package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"because/internal/bgp"
	"because/internal/stats"
)

// plantedDataset synthesises measurements over a small AS universe where
// the damping set is known, giving the samplers a recoverable target.
//
// Topology intuition: ASes 1..12; AS 7 damps everything, AS 9 damps
// nothing, the rest damp nothing. Paths through 7 are positive, everything
// else negative.
func plantedDataset(t *testing.T) *Dataset {
	t.Helper()
	var obs []PathObs
	paths := [][]bgp.ASN{
		{1, 7, 3}, {2, 7, 4}, {5, 7, 6}, {1, 7, 6}, {8, 7, 3},
		{1, 9, 3}, {2, 9, 4}, {5, 9, 6}, {8, 9, 10},
		{1, 2, 3}, {4, 5, 6}, {8, 10, 11}, {11, 12, 1}, {2, 4, 6},
	}
	for _, p := range paths {
		positive := false
		for _, a := range p {
			if a == 7 {
				positive = true
			}
		}
		obs = append(obs, PathObs{ASNs: p, Positive: positive})
	}
	return mustDataset(t, obs)
}

func checkRecovery(t *testing.T, c *Chain, ds *Dataset) {
	t.Helper()
	i7, _ := ds.NodeIndex(7)
	i9, _ := ds.NodeIndex(9)
	m7 := stats.Mean(c.Marginal(i7))
	m9 := stats.Mean(c.Marginal(i9))
	if m7 < 0.8 {
		t.Errorf("%s: damping AS7 mean = %g, want > 0.8", c.Method, m7)
	}
	if m9 > 0.2 {
		t.Errorf("%s: clean AS9 mean = %g, want < 0.2", c.Method, m9)
	}
}

func TestMHRecoversPlantedDamper(t *testing.T) {
	ds := plantedDataset(t)
	c, err := RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 1200, BurnIn: 300}}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1200 {
		t.Errorf("samples = %d", c.Len())
	}
	ar := c.AcceptanceRate()
	if ar < 0.1 || ar > 0.95 {
		t.Errorf("MH acceptance rate = %g", ar)
	}
	checkRecovery(t, c, ds)
}

func TestHMCRecoversPlantedDamper(t *testing.T) {
	ds := plantedDataset(t)
	c, err := RunHMC(context.Background(), ds, Config{HMC: HMCConfig{Iterations: 600, BurnIn: 200}}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 600 {
		t.Errorf("samples = %d", c.Len())
	}
	ar := c.AcceptanceRate()
	if ar < 0.3 {
		t.Errorf("HMC acceptance rate = %g (diverging integrator?)", ar)
	}
	checkRecovery(t, c, ds)
}

func TestSamplersAgree(t *testing.T) {
	ds := plantedDataset(t)
	mh, err := RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 1200, BurnIn: 300}}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	hmc, err := RunHMC(context.Background(), ds, Config{HMC: HMCConfig{Iterations: 600, BurnIn: 200}}, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.NumNodes(); i++ {
		a := stats.Mean(mh.Marginal(i))
		b := stats.Mean(hmc.Marginal(i))
		if math.Abs(a-b) > 0.2 {
			t.Errorf("node %v: MH mean %g vs HMC mean %g", ds.Nodes()[i], a, b)
		}
	}
}

func TestMHDeterministicGivenSeed(t *testing.T) {
	ds := plantedDataset(t)
	run := func() []float64 {
		c, err := RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 100, BurnIn: 20}}, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		return c.Samples[len(c.Samples)-1]
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("MH not deterministic at node %d", i)
		}
	}
}

func TestHiddenNodeRecoversPrior(t *testing.T) {
	// AS 50 appears ONLY on positive paths that also contain the known
	// damper 7 — it is "hiding behind" the damper (Figure 9d): its
	// marginal should stay close to the prior (wide HDPI).
	var obs []PathObs
	for i := 0; i < 6; i++ {
		obs = append(obs, PathObs{ASNs: []bgp.ASN{bgp.ASN(i + 1), 7, 50}, Positive: true})
		obs = append(obs, PathObs{ASNs: []bgp.ASN{bgp.ASN(i + 1), 7, 60}, Positive: true})
		// Strong evidence that 7 damps and others are clean.
		obs = append(obs, PathObs{ASNs: []bgp.ASN{bgp.ASN(i + 1), 30}, Positive: false})
	}
	ds := mustDataset(t, obs)
	c, err := RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 1500, BurnIn: 400}}, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	i50, _ := ds.NodeIndex(50)
	h := stats.HDPIInto(make([]float64, len(c.Marginal(i50))), c.Marginal(i50), 0.95)
	if h.Width() < 0.5 {
		t.Errorf("hidden node HDPI width = %g, expected wide (prior recovered)", h.Width())
	}
}

func TestUniformPriorStillRecovers(t *testing.T) {
	// § 3.2: the choice of prior should not strongly influence the results
	// when there is enough data.
	ds := plantedDataset(t)
	c, err := RunMH(context.Background(), ds, Config{Prior: UniformPrior, MH: MHConfig{Sweeps: 1200, BurnIn: 300}}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// The uniform prior pulls estimates toward the middle harder than the
	// sparse prior, so the bands are slightly wider here; the separation
	// between damper and non-damper must persist.
	i7, _ := ds.NodeIndex(7)
	i9, _ := ds.NodeIndex(9)
	m7 := stats.Mean(c.Marginal(i7))
	m9 := stats.Mean(c.Marginal(i9))
	if m7 < 0.7 {
		t.Errorf("uniform prior: damping AS7 mean = %g, want > 0.7", m7)
	}
	if m9 > 0.3 {
		t.Errorf("uniform prior: clean AS9 mean = %g, want < 0.3", m9)
	}
	if m7-m9 < 0.4 {
		t.Errorf("uniform prior: separation %g too small", m7-m9)
	}
}

func TestRunConfigValidation(t *testing.T) {
	ds := plantedDataset(t)
	ctx := context.Background()
	// Each invalid sampler or run knob is rejected with a *ConfigError
	// that names the field, not a dump of the whole config.
	for _, tc := range []struct {
		name  string
		run   func(context.Context, *Dataset, Config, *stats.RNG) (*Chain, error)
		cfg   Config
		field string
	}{
		{"mh sweeps", RunMH, Config{MH: MHConfig{Sweeps: -1}}, "MH.Sweeps"},
		{"mh burn-in", RunMH, Config{MH: MHConfig{BurnIn: -5}}, "MH.BurnIn"},
		{"hmc iterations", RunHMC, Config{HMC: HMCConfig{Iterations: -1}}, "HMC.Iterations"},
		{"hmc burn-in", RunHMC, Config{HMC: HMCConfig{BurnIn: -2}}, "HMC.BurnIn"},
		{"hmc leapfrog", RunHMC, Config{HMC: HMCConfig{Leapfrog: -2}}, "HMC.Leapfrog"},
		{"hmc step size", RunHMC, Config{HMC: HMCConfig{StepSize: -0.1}}, "HMC.StepSize"},
		{"progress cadence", RunMH, Config{ProgressEvery: -1}, "ProgressEvery"},
	} {
		_, err := tc.run(ctx, ds, tc.cfg, stats.NewRNG(1))
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field || strings.Contains(err.Error(), "{") {
			t.Errorf("%s: error %q does not name %s alone", tc.name, err, tc.field)
		}
	}
	if _, err := RunMH(ctx, ds, Config{Prior: Prior{Alpha: -1, Beta: 1}}, stats.NewRNG(1)); err == nil {
		t.Error("invalid prior accepted")
	}
	empty := &Dataset{}
	if _, err := RunMH(ctx, empty, Config{}, stats.NewRNG(1)); err == nil {
		t.Error("empty dataset accepted by MH")
	}
	if _, err := RunHMC(ctx, empty, Config{}, stats.NewRNG(1)); err == nil {
		t.Error("empty dataset accepted by HMC")
	}
}

// TestChainMarginal: a chain retains one sample per post-burn-in sweep,
// and Marginal reads one node's column across them.
func TestChainMarginal(t *testing.T) {
	ds := plantedDataset(t)
	c, err := RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 50, BurnIn: 10}}, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 50 {
		t.Errorf("Len = %d, want 50", c.Len())
	}
	i7, _ := ds.NodeIndex(7)
	m := c.Marginal(i7)
	if len(m) != 50 {
		t.Fatalf("Marginal(AS7): len = %d, want 50", len(m))
	}
	for k, v := range m {
		if v != c.Samples[k][i7] {
			t.Fatalf("Marginal(AS7)[%d] = %g, sample holds %g", k, v, c.Samples[k][i7])
		}
	}
}

func TestPosteriorSamplesInUnitInterval(t *testing.T) {
	ds := plantedDataset(t)
	for _, run := range []func() (*Chain, error){
		func() (*Chain, error) {
			return RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 200, BurnIn: 50}}, stats.NewRNG(9))
		},
		func() (*Chain, error) {
			return RunHMC(context.Background(), ds, Config{HMC: HMCConfig{Iterations: 100, BurnIn: 20}}, stats.NewRNG(10))
		},
	} {
		c, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range c.Samples {
			for _, v := range s {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("%s sample out of range: %g", c.Method, v)
				}
			}
		}
	}
}

func TestRHatConvergence(t *testing.T) {
	ds := plantedDataset(t)
	var marginals [][]float64
	for seed := uint64(20); seed < 23; seed++ {
		c, err := RunMH(context.Background(), ds, Config{MH: MHConfig{Sweeps: 600, BurnIn: 200}}, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		i7, _ := ds.NodeIndex(7)
		marginals = append(marginals, c.Marginal(i7))
	}
	r := RHat(marginals)
	if math.IsNaN(r) || r > 1.2 {
		t.Errorf("R-hat = %g, chains did not converge", r)
	}
}

func TestRHatEdgeCases(t *testing.T) {
	if !math.IsNaN(RHat(nil)) {
		t.Error("RHat(nil) should be NaN")
	}
	if !math.IsNaN(RHat([][]float64{{1, 2}})) {
		t.Error("single chain should be NaN")
	}
	if !math.IsNaN(RHat([][]float64{{1, 2}, {1}})) {
		t.Error("ragged chains should be NaN")
	}
	if got := RHat([][]float64{{1, 1, 1}, {1, 1, 1}}); got != 1 {
		t.Errorf("identical constant chains R-hat = %g", got)
	}
}

// TestProposalLogNormalMatchesTruncNormal pins the MH sweep's shared
// proposal term: less each centre's truncation mass it is bitwise the
// truncated-normal density of the move in either direction, across the
// clamped unit interval and at its ends.
func TestProposalLogNormalMatchesTruncNormal(t *testing.T) {
	points := []float64{pEps, 1e-6, 0.01, 0.1, 0.15, 0.3, 0.4999, 0.5, 0.71, 0.9, 0.99, 1 - 1e-6, 1 - pEps}
	for _, cur := range points {
		for _, cand := range points {
			norm := proposalLogNormal(cur, cand)
			fwd, back := proposal(cur), proposal(cand)
			if got, want := norm-fwd.LogMass(), fwd.LogPDFGiven(cand, fwd.LogMass()); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("forward %v -> %v: %v, LogPDFGiven %v", cur, cand, got, want)
			}
			if got, want := norm-back.LogMass(), back.LogPDFGiven(cur, back.LogMass()); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("backward %v -> %v: %v, LogPDFGiven %v", cand, cur, got, want)
			}
		}
	}
}

// essReference is the ESS estimator written as its definition: one
// autocovariance pass per lag, each over the uncentred samples.
func essReference(samples []float64) float64 {
	n := len(samples)
	if n < 4 {
		return float64(n)
	}
	mean := stats.Mean(samples)
	autocov := func(lag int) float64 {
		var s float64
		for i := 0; i+lag < n; i++ {
			s += (samples[i] - mean) * (samples[i+lag] - mean)
		}
		return s / float64(n)
	}
	c0 := autocov(0)
	if c0 == 0 {
		return float64(n)
	}
	sum := 0.0
	for lag := 1; lag+1 < n; lag += 2 {
		r1, r2 := autocov(lag)/c0, autocov(lag+1)/c0
		if r1+r2 <= 0 {
			break
		}
		sum += r1 + r2
	}
	return min(max(float64(n)/(1+2*sum), 1), float64(n))
}

// TestESSMatchesReference pins the one-pass-per-lag-pair ESS bitwise to
// the per-lag definition, over white noise, slowly mixing AR(1) columns
// (whose positive sequence runs over many lags), constant columns and
// every short length.
func TestESSMatchesReference(t *testing.T) {
	rng := stats.NewRNG(31)
	var cols [][]float64
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 17, 64, 301, 1500} {
		for _, rho := range []float64{0, 0.5, 0.95, 0.999} {
			col := make([]float64, n)
			x := rng.Float64()
			for i := range col {
				x = rho*x + (1-rho)*rng.Float64()
				col[i] = x
			}
			cols = append(cols, col)
		}
		constant := make([]float64, n)
		for i := range constant {
			constant[i] = 0.3
		}
		cols = append(cols, constant)
	}
	for _, col := range cols {
		got, want := ESS(col), essReference(col)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: ESS = %v, reference %v", len(col), got, want)
		}
	}
}

func TestESS(t *testing.T) {
	rng := stats.NewRNG(30)
	// Independent samples: ESS near n.
	iid := make([]float64, 2000)
	for i := range iid {
		iid[i] = rng.Norm()
	}
	if got := ESS(iid); got < 1000 {
		t.Errorf("iid ESS = %g, want near 2000", got)
	}
	// Strongly autocorrelated samples: ESS much smaller.
	ar := make([]float64, 2000)
	for i := 1; i < len(ar); i++ {
		ar[i] = 0.98*ar[i-1] + 0.02*rng.Norm()
	}
	if got := ESS(ar); got > 500 {
		t.Errorf("AR(1) ESS = %g, want small", got)
	}
	if got := ESS([]float64{1, 2}); got != 2 {
		t.Errorf("tiny ESS = %g", got)
	}
}
