package because

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestInferModelOption drives the churn model end to end through the
// public API: the run succeeds, flags the planted damper, and stamps the
// resolved model name on the result and every report.
func TestInferModelOption(t *testing.T) {
	res, err := Infer(plantedObs(), Options{
		Seed: 4, Model: ModelChurn, ChurnRate: 0.05,
		MHSweeps: 400, MHBurnIn: 100, HMCIterations: 150, HMCBurnIn: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != ModelChurn {
		t.Errorf("result model = %q, want %q", res.Model, ModelChurn)
	}
	rep, ok := res.Lookup(7)
	if !ok {
		t.Fatal("AS 7 missing")
	}
	if rep.Model != ModelChurn {
		t.Errorf("report model = %q, want %q", rep.Model, ModelChurn)
	}
	if !rep.Category.Positive() {
		t.Errorf("planted damper not flagged under the churn model: %+v", rep)
	}
}

// TestDefaultModelStamped: a default run resolves to and reports "rfd".
func TestDefaultModelStamped(t *testing.T) {
	res, err := Infer(plantedObs(), Options{
		Seed: 4, DisableHMC: true, MHSweeps: 200, MHBurnIn: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != ModelRFD {
		t.Errorf("result model = %q, want %q", res.Model, ModelRFD)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"model":"rfd"`) {
		t.Errorf("wire document missing model stamp: %s", data)
	}
}

// TestModelOptionValidation pins the typed errors for the model knobs.
func TestModelOptionValidation(t *testing.T) {
	cases := []struct {
		opts  Options
		field string
	}{
		{Options{Model: "rov"}, "model"},
		{Options{ChurnRate: 0.2}, "churn_rate"},                     // churn_rate without churn model
		{Options{Model: ModelRFD, ChurnRate: 0.2}, "churn_rate"},    // ditto, spelled out
		{Options{Model: ModelChurn, ChurnRate: 1}, "churn_rate"},    // out of range
		{Options{Model: ModelChurn, ChurnRate: -0.1}, "churn_rate"}, // out of range
		{Options{Model: "rov", MissRate: 2}, "miss_rate"},           // the miss rate is checked first
		{Options{Model: "rov", ChurnRate: 2}, "model"},              // then the name
	}
	for _, tc := range cases {
		_, err := Infer(plantedObs(), tc.opts)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%+v: error %v, want *ValidationError", tc.opts, err)
			continue
		}
		if verr.Field != tc.field {
			t.Errorf("%+v: error field %q, want %q", tc.opts, verr.Field, tc.field)
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%+v: error does not unwrap to ErrInvalidOptions", tc.opts)
		}
	}
	// Valid settings: churn with a rate, churn without one, explicit rfd.
	for _, opts := range []Options{
		{Model: ModelChurn, ChurnRate: 0.1},
		{Model: ModelChurn},
		{Model: ModelRFD},
	} {
		opts.DisableHMC = true
		opts.MHSweeps = 40
		opts.MHBurnIn = 10
		if _, err := Infer(plantedObs(), opts); err != nil {
			t.Errorf("%+v: unexpected error %v", opts, err)
		}
	}
}
