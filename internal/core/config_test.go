package core

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestResolveDefaults pins every value Resolve fills in — the paper's
// § 5.1 schedule — and that a resolved config resolves to itself.
func TestResolveDefaults(t *testing.T) {
	got, err := Config{Seed: 9}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed:              9,
		Prior:             Prior{Alpha: 0.4, Beta: 0.4},
		MH:                MHConfig{Sweeps: 1500, BurnIn: 375},
		HMC:               HMCConfig{Iterations: 800, BurnIn: 200, Leapfrog: 12, StepSize: 0.08},
		Chains:            1,
		HDPIMass:          0.95,
		PinpointThreshold: 0.8,
		Model:             Model{Name: "rfd"},
		ProgressEvery:     100,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config{}.Resolve() =\n%+v\nwant\n%+v", got, want)
	}
	again, err := got.Resolve()
	if err != nil || !reflect.DeepEqual(again, got) {
		t.Errorf("resolving a resolved config = %+v, %v; want it unchanged", again, err)
	}

	// Burn-in defaults follow the stated lengths; stated values, a
	// negative (disabling) vote share and the worker count pass through.
	got, err = Config{
		MH:                MHConfig{Sweeps: 200},
		HMC:               HMCConfig{Iterations: 40, BurnIn: 3, Leapfrog: 6, StepSize: 0.05},
		Chains:            3,
		Workers:           2,
		HDPIMass:          0.9,
		PinpointThreshold: -1,
		Model:             Model{Name: "churn", BackgroundRate: 0.05},
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got.MH != (MHConfig{Sweeps: 200, BurnIn: 50}) ||
		got.HMC != (HMCConfig{Iterations: 40, BurnIn: 3, Leapfrog: 6, StepSize: 0.05}) ||
		got.Chains != 3 || got.Workers != 2 || got.HDPIMass != 0.9 || got.PinpointThreshold != -1 ||
		got.Model != (Model{Name: "churn", BackgroundRate: 0.05}) {
		t.Errorf("stated values changed: %+v", got)
	}
}

// TestResolveRules pins the *ConfigError field of every rule Resolve
// checks, and the order they are checked in.
func TestResolveRules(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"NaN prior", Config{Prior: Prior{nan, 1}}, "Prior"},
		{"infinite prior", Config{Prior: Prior{1, inf}}, "Prior"},
		{"NaN miss rate", Config{Model: Model{MissRate: nan}}, "Model.MissRate"},
		{"NaN background rate", Config{Model: Model{Name: "churn", BackgroundRate: nan}}, "Model.BackgroundRate"},
		{"NaN HDPI mass", Config{HDPIMass: nan}, "HDPIMass"},
		{"infinite threshold", Config{PinpointThreshold: -inf}, "PinpointThreshold"},
		{"NaN step size", Config{HMC: HMCConfig{StepSize: nan}}, "HMC.StepSize"},
		{"non-positive prior", Config{Prior: Prior{0, 1}}, "Prior"},
		{"MH sweeps", Config{MH: MHConfig{Sweeps: -1}}, "MH.Sweeps"},
		{"MH burn-in", Config{MH: MHConfig{BurnIn: -1}}, "MH.BurnIn"},
		{"HMC iterations", Config{HMC: HMCConfig{Iterations: -1}}, "HMC.Iterations"},
		{"HMC burn-in", Config{HMC: HMCConfig{BurnIn: -1}}, "HMC.BurnIn"},
		{"leapfrog", Config{HMC: HMCConfig{Leapfrog: -1}}, "HMC.Leapfrog"},
		{"step size", Config{HMC: HMCConfig{StepSize: -0.1}}, "HMC.StepSize"},
		{"no sampler", Config{DisableMH: true, DisableHMC: true}, "DisableMH, DisableHMC"},
		{"chains", Config{Chains: -1}, "Chains"},
		{"workers", Config{Workers: -1}, "Workers"},
		{"HDPI mass 1", Config{HDPIMass: 1}, "HDPIMass"},
		{"negative HDPI mass", Config{HDPIMass: -0.5}, "HDPIMass"},
		{"threshold above 1", Config{PinpointThreshold: 1.5}, "PinpointThreshold"},
		{"model name", Config{Model: Model{Name: "rov"}}, "Model.Name"},
		{"miss rate", Config{Model: Model{MissRate: 1}}, "Model.MissRate"},
		{"background rate without churn", Config{Model: Model{BackgroundRate: 0.1}}, "Model.BackgroundRate"},
		{"progress cadence", Config{ProgressEvery: -1}, "ProgressEvery"},

		// The first broken rule in Resolve's order wins.
		{"finite before prior", Config{Prior: Prior{-1, 1}, HDPIMass: nan}, "HDPIMass"},
		{"prior before sweeps", Config{Prior: Prior{-1, 1}, MH: MHConfig{Sweeps: -1}}, "Prior"},
		{"sweeps before samplers", Config{MH: MHConfig{Sweeps: -1}, DisableMH: true, DisableHMC: true}, "MH.Sweeps"},
		{"samplers before chains", Config{DisableMH: true, DisableHMC: true, Chains: -1}, "DisableMH, DisableHMC"},
		{"workers before mass", Config{Workers: -1, HDPIMass: 2}, "Workers"},
		{"mass before threshold", Config{HDPIMass: 2, PinpointThreshold: 2}, "HDPIMass"},
		{"threshold before model", Config{PinpointThreshold: 2, Model: Model{Name: "rov"}}, "PinpointThreshold"},
		{"model before progress", Config{Model: Model{Name: "rov"}, ProgressEvery: -1}, "Model.Name"},
	} {
		_, err := tc.cfg.Resolve()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: Field = %q, want %q (%v)", tc.name, ce.Field, tc.field, err)
		}
	}
}
