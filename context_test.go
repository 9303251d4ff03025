package because

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

func fastOpts(seed uint64) Options {
	return Options{Seed: seed, MHSweeps: 120, MHBurnIn: 30, HMCIterations: 60, HMCBurnIn: 15}
}

func TestInferContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := InferContext(ctx, plantedObs(), fastOpts(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
}

func TestInferContextDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := InferContext(ctx, plantedObs(), fastOpts(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestInferContextMidRunCancelNoLeak cancels from inside the progress
// stream — deterministically mid-sampling — and then asserts both that
// ctx.Err() comes back promptly and that no sampler goroutines outlive the
// call.
func TestInferContextMidRunCancelNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOpts(2)
	opts.Chains = 3
	opts.Workers = 2
	opts.ProgressEvery = 10
	opts.OnProgress = func(ProgressEvent) { cancel() }
	start := time.Now()
	res, err := InferContext(ctx, plantedObs(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	// "Promptly": a full run at these settings takes far longer than one
	// sweep; the generous bound only guards against ignoring cancellation.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
	// All chain goroutines were already joined by pool.Wait before
	// InferContext returned; allow a little scheduler settling anyway.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInferContextCompletedRunBitIdentical is the determinism half of the
// cancellation contract: running under a live context must not perturb a
// single bit of the result, because the per-sweep ctx check never touches
// the RNG.
func TestInferContextCompletedRunBitIdentical(t *testing.T) {
	opts := fastOpts(7)
	opts.Chains = 2
	want, err := Infer(plantedObs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := InferContext(ctx, plantedObs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Reports) != len(got.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(want.Reports), len(got.Reports))
	}
	for i := range want.Reports {
		a, b := want.Reports[i], got.Reports[i]
		for _, f := range [][2]float64{
			{a.Mean, b.Mean}, {a.CredibleLow, b.CredibleLow}, {a.CredibleHigh, b.CredibleHigh},
			{a.Certainty, b.Certainty}, {a.RHat, b.RHat},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("AS %d: %v != %v bit-for-bit", a.AS, f[0], f[1])
			}
		}
		if a.Category != b.Category || a.Pinpointed != b.Pinpointed {
			t.Fatalf("AS %d: categorical fields differ: %+v vs %+v", a.AS, a, b)
		}
	}
	if math.Float64bits(want.MHAcceptance) != math.Float64bits(got.MHAcceptance) ||
		math.Float64bits(want.HMCAcceptance) != math.Float64bits(got.HMCAcceptance) ||
		want.HMCDivergences != got.HMCDivergences {
		t.Fatal("sampler diagnostics differ between Infer and InferContext")
	}
}

func TestTypedErrors(t *testing.T) {
	if _, err := Infer(nil, Options{}); !errors.Is(err, ErrNoObservations) {
		t.Errorf("empty observations: err = %v, want ErrNoObservations", err)
	}
	cases := []struct {
		name  string
		obs   []PathObservation
		opts  Options
		field string
	}{
		{"negative sweeps", plantedObs(), Options{MHSweeps: -1}, "mh_sweeps"},
		{"bad prior", plantedObs(), Options{Prior: Prior{Alpha: -1, Beta: 1}}, "prior"},
		{"NaN prior", plantedObs(), Options{Prior: Prior{Alpha: math.NaN(), Beta: 1}}, "prior"},
		{"infinite prior", plantedObs(), Options{Prior: Prior{Alpha: 1, Beta: math.Inf(1)}}, "prior"},
		{"bad miss rate", plantedObs(), Options{MissRate: 1}, "miss_rate"},
		{"NaN miss rate", plantedObs(), Options{MissRate: math.NaN()}, "miss_rate"},
		{"NaN churn rate", plantedObs(), Options{Model: ModelChurn, ChurnRate: math.NaN()}, "churn_rate"},
		{"bad hdpi mass", plantedObs(), Options{HDPIMass: 2}, "hdpi_mass"},
		{"NaN hdpi mass", plantedObs(), Options{HDPIMass: math.NaN()}, "hdpi_mass"},
		{"hdpi mass 1", plantedObs(), Options{HDPIMass: 1}, "hdpi_mass"},
		{"pinpoint threshold above 1", plantedObs(), Options{PinpointThreshold: 1.5}, "pinpoint_threshold"},
		{"NaN pinpoint threshold", plantedObs(), Options{PinpointThreshold: math.NaN()}, "pinpoint_threshold"},
		{"infinite pinpoint threshold", plantedObs(), Options{PinpointThreshold: math.Inf(-1)}, "pinpoint_threshold"},
		{"empty path", []PathObservation{{Path: []ASN{1}}, {}}, Options{}, "observations[1].path"},
		{"repeated AS", []PathObservation{{Path: []ASN{1, 2}}, {Path: []ASN{3, 4, 3}}}, Options{}, "observations[1].path"},
		{"negative weight", []PathObservation{{Path: []ASN{1, 2}, Weight: -1}}, Options{}, "observations[0].weight"},
		{"NaN weight", []PathObservation{{Path: []ASN{1, 2}, Weight: math.NaN()}}, Options{}, "observations[0].weight"},
		{"infinite weight", []PathObservation{{Path: []ASN{1, 2}, Weight: math.Inf(1)}}, Options{}, "observations[0].weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Infer(tc.obs, tc.opts)
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("err = %v, want ErrInvalidOptions class", err)
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("err = %v, want *ValidationError", err)
			}
			if ve.Field != tc.field {
				t.Errorf("Field = %q, want %q", ve.Field, tc.field)
			}
		})
	}
}

// TestProgressCallbacks checks OnProgress receives the sampler stream.
func TestProgressCallbacks(t *testing.T) {
	var events []ProgressEvent
	opts := Options{Seed: 3, DisableHMC: true, MHSweeps: 100, MHBurnIn: 20, ProgressEvery: 25}
	opts.OnProgress = func(ev ProgressEvent) { events = append(events, ev) }
	if _, err := Infer(plantedObs(), opts); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("OnProgress never fired")
	}
	last := events[len(events)-1]
	if last.Stage != "mh" || last.Done != last.Total {
		t.Errorf("final event = %+v, want completed mh stage", last)
	}
	if r := last.AcceptanceRate(); r <= 0 || r > 1 {
		t.Errorf("acceptance rate = %g", r)
	}
	if (ProgressEvent{}).AcceptanceRate() != 0 {
		t.Error("zero-proposal acceptance rate not 0")
	}
}

func TestSchemaVersionInJSON(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 4, DisableHMC: true, MHSweeps: 100, MHBurnIn: 20})
	if err != nil {
		t.Fatal(err)
	}
	repJSON, err := json.Marshal(res.Reports[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(repJSON, []byte(`"schema_version":1`)) {
		t.Errorf("report JSON missing schema_version: %s", repJSON)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion int               `json:"schema_version"`
		Reports       []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(resJSON, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != SchemaVersion {
		t.Errorf("result schema_version = %d, want %d", doc.SchemaVersion, SchemaVersion)
	}
	if len(doc.Reports) != len(res.Reports) {
		t.Errorf("result JSON carries %d reports, want %d", len(doc.Reports), len(res.Reports))
	}
	empty := &Result{}
	emptyJSON, err := json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(emptyJSON, []byte(`"reports":[]`)) {
		t.Errorf("empty result reports not [], got %s", emptyJSON)
	}
}
