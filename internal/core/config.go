package core

import (
	"fmt"
	"math"

	"because/internal/obs"
)

// Config drives a complete BeCAUSe inference run.
type Config struct {
	// Prior on each p_i; zero value selects SparsePrior.
	Prior Prior
	// MH and HMC set each sampler's chain length and numerics; zero values
	// select Resolve's defaults. Every other field applies to both samplers, including
	// when one runs alone through RunMH or RunHMC.
	MH  MHConfig
	HMC HMCConfig
	// DisableMH / DisableHMC skip a sampler (both run by default, and the
	// categories are combined by the highest flag).
	DisableMH, DisableHMC bool
	// Chains runs this many independent Metropolis-Hastings chains
	// (default 1). With 2 or more, per-node Gelman-Rubin R-hat diagnostics
	// are computed across them and reported on each summary.
	Chains int
	// HDPIMass is the credible-interval mass, in (0, 1) (default 0.95).
	HDPIMass float64
	// PinpointThreshold is the Eq. 8 vote share, at most 1 (default
	// 0.8). Negative disables the pinpointing pass.
	PinpointThreshold float64
	// Model is the observation model both samplers draw against. The
	// zero value is the paper's § 3.1 likelihood; see Model for the miss
	// and background rates. Its resolved name is carried on the Result.
	Model Model
	// Seed makes the run reproducible.
	Seed uint64
	// Workers bounds how many chains run concurrently: every MH chain and
	// the HMC chain are independent tasks executed on a pool of this many
	// goroutines. 0 (the default) selects GOMAXPROCS; 1 recovers strictly
	// sequential execution. The result is bit-identical at every worker
	// count — each chain's RNG stream is split off deterministically
	// before any chain starts (see stats.RNG.Split), and chains land in
	// fixed result slots — an invariant pinned by the reproducibility
	// harness in reproducibility_test.go.
	Workers int

	// Obs attaches metrics and structured logging to every stage of the
	// run: the samplers report acceptance rates, sweep counters,
	// divergences and throughput; InferContext itself reports stage
	// durations and final R-hat/ESS diagnostics. Nil (the default) is a no-op whose
	// cost is a pointer check per sweep.
	Obs *obs.Observer
	// Progress, when non-nil, receives sampler progress events every
	// ProgressEvery sweeps and at each sampler's completion — enough for
	// a CLI to render live progress. Called synchronously: keep it fast.
	Progress obs.ProgressFunc
	// ProgressEvery is the progress cadence in sweeps (default 100).
	ProgressEvery int
}

// ConfigError is a Config.Resolve failure. Field is the Go path of the
// setting at fault within Config ("MH.Sweeps", "Model.MissRate",
// "Prior"), so a layer with its own spelling of the settings can report
// the failure under its field name.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return "core: " + e.Field + ": " + e.Reason }

// Resolve is the one owner of the inference settings: it returns the
// config with every zero value replaced by its default — the paper's
// § 5.1 schedule of 1500 MH sweeps and 800 HMC trajectories, each with a
// quarter as many burn-in steps, the sparse prior, one chain, 12 leapfrog
// steps of 0.08, a 95% HDPI, the Eq. 8 vote at 0.8, progress every 100
// sweeps and the "rfd" model name — after checking every rule, in this
// order: finite numbers, prior, the four chain lengths, the integrator,
// at least one sampler, chains, workers, HDPI mass, pinpoint threshold,
// model and progress cadence. The first broken rule is a *ConfigError.
// Workers is left as given: 0 selects GOMAXPROCS when the chains run.
func (c Config) Resolve() (Config, error) {
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"Prior", c.Prior.Alpha}, {"Prior", c.Prior.Beta},
		{"Model.MissRate", c.Model.MissRate}, {"Model.BackgroundRate", c.Model.BackgroundRate},
		{"HDPIMass", c.HDPIMass}, {"PinpointThreshold", c.PinpointThreshold},
		{"HMC.StepSize", c.HMC.StepSize},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return Config{}, &ConfigError{f.field, fmt.Sprintf("%g is not a finite number", f.v)}
		}
	}
	if c.Prior == (Prior{}) {
		c.Prior = SparsePrior
	}
	if err := c.Prior.Validate(); err != nil {
		return Config{}, err
	}
	// count checks a non-negative count and replaces its zero by def; once
	// one fails, later calls do nothing until err is returned.
	var err error
	count := func(field string, v *int, def int) {
		switch {
		case err != nil:
		case *v < 0:
			err = &ConfigError{field, "must be non-negative"}
		case *v == 0:
			*v = def
		}
	}
	count("MH.Sweeps", &c.MH.Sweeps, 1500)
	count("MH.BurnIn", &c.MH.BurnIn, c.MH.Sweeps/4)
	count("HMC.Iterations", &c.HMC.Iterations, 800)
	count("HMC.BurnIn", &c.HMC.BurnIn, c.HMC.Iterations/4)
	count("HMC.Leapfrog", &c.HMC.Leapfrog, 12)
	if err != nil {
		return Config{}, err
	}
	if c.HMC.StepSize < 0 {
		return Config{}, &ConfigError{"HMC.StepSize", "must be positive"}
	}
	if c.HMC.StepSize == 0 {
		c.HMC.StepSize = 0.08
	}
	if c.DisableMH && c.DisableHMC {
		return Config{}, &ConfigError{"DisableMH, DisableHMC", "both samplers disabled"}
	}
	count("Chains", &c.Chains, 1)
	count("Workers", &c.Workers, 0)
	if err != nil {
		return Config{}, err
	}
	if c.HDPIMass == 0 {
		c.HDPIMass = 0.95
	}
	if !(c.HDPIMass > 0 && c.HDPIMass < 1) {
		return Config{}, &ConfigError{"HDPIMass", fmt.Sprintf("%g outside (0, 1) (0 selects the 0.95 default)", c.HDPIMass)}
	}
	if c.PinpointThreshold == 0 {
		c.PinpointThreshold = 0.8
	}
	if c.PinpointThreshold > 1 {
		return Config{}, &ConfigError{"PinpointThreshold", fmt.Sprintf("vote share %g above 1 (0 selects the 0.8 default, a negative share disables the pass)", c.PinpointThreshold)}
	}
	if err := c.Model.Validate(); err != nil {
		return Config{}, err
	}
	c.Model.Name = c.Model.name()
	count("ProgressEvery", &c.ProgressEvery, 100)
	if err != nil {
		return Config{}, err
	}
	return c, nil
}
