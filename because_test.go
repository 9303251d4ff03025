package because

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// plantedObs builds a toy dataset with AS 7 as the only damper.
func plantedObs() []PathObservation {
	var obs []PathObservation
	paths := [][]ASN{
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
		obs = append(obs, PathObservation{Path: p, ShowsProperty: positive})
	}
	return obs
}

func TestInferRecoversPlantedDamper(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := res.Lookup(7)
	if !ok {
		t.Fatal("AS 7 missing")
	}
	if !rep.Category.Positive() {
		t.Errorf("planted damper not flagged: %+v", rep)
	}
	if rep.Mean < 0.7 {
		t.Errorf("damper mean = %g", rep.Mean)
	}
	if rep.PositivePaths != 5 || rep.NegativePaths != 0 {
		t.Errorf("path counts = %d/%d", rep.PositivePaths, rep.NegativePaths)
	}
	clean, ok := res.Lookup(9)
	if !ok {
		t.Fatal("AS 9 missing")
	}
	if clean.Category.Positive() || clean.Mean > 0.3 {
		t.Errorf("clean AS flagged: %+v", clean)
	}
	flagged := res.Flagged()
	if len(flagged) != 1 || flagged[0].AS != 7 {
		t.Errorf("Flagged = %v", flagged)
	}
}

func TestInferDeterministic(t *testing.T) {
	a, err := Infer(plantedObs(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(plantedObs(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Reports {
		ra, rb := a.Reports[i], b.Reports[i]
		// NaN (single-chain RHat) never compares equal; check it separately.
		if math.IsNaN(ra.RHat) != math.IsNaN(rb.RHat) {
			t.Fatalf("RHat NaN-ness differs at %d", i)
		}
		ra.RHat, rb.RHat = 0, 0
		if ra != rb {
			t.Fatalf("reports differ at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestInferReportsOrderedAndComplete(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 2, DisableHMC: true, MHSweeps: 200, MHBurnIn: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 12 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	for i := 1; i < len(res.Reports); i++ {
		if res.Reports[i].AS <= res.Reports[i-1].AS {
			t.Fatal("reports not sorted")
		}
	}
	if res.MHAcceptance <= 0 || res.MHAcceptance > 1 {
		t.Errorf("MH acceptance = %g", res.MHAcceptance)
	}
	if res.HMCAcceptance != 0 {
		t.Errorf("HMC acceptance = %g with HMC disabled", res.HMCAcceptance)
	}
	counts := res.CategoryCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(res.Reports) {
		t.Errorf("category counts sum %d", total)
	}
}

func TestInferCredibleIntervals(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Reports {
		if rep.CredibleLow > rep.Mean+0.05 || rep.CredibleHigh < rep.Mean-0.05 {
			t.Errorf("AS %d: mean %.2f outside interval [%.2f, %.2f]",
				rep.AS, rep.Mean, rep.CredibleLow, rep.CredibleHigh)
		}
		if rep.Certainty < 0 || rep.Certainty > 1 {
			t.Errorf("AS %d certainty %g", rep.AS, rep.Certainty)
		}
	}
}

func TestInferValidation(t *testing.T) {
	if _, err := Infer(nil, Options{}); err == nil {
		t.Error("empty observations accepted")
	}
	if _, err := Infer([]PathObservation{{}}, Options{}); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := Infer(plantedObs(), Options{DisableMH: true, DisableHMC: true}); err == nil {
		t.Error("both samplers disabled accepted")
	}
	if _, err := Infer(plantedObs(), Options{Prior: Prior{Alpha: -1, Beta: 1}}); err == nil {
		t.Error("invalid prior accepted")
	}
}

func TestInferPriorChoices(t *testing.T) {
	for _, prior := range []Prior{PriorSparse, PriorUniform, PriorCentered} {
		res, err := Infer(plantedObs(), Options{Seed: 10, Prior: prior, DisableHMC: true})
		if err != nil {
			t.Fatalf("prior %+v: %v", prior, err)
		}
		rep, _ := res.Lookup(7)
		clean, _ := res.Lookup(9)
		if rep.Mean-clean.Mean < 0.4 {
			t.Errorf("prior %+v: damper/clean separation %.2f", prior, rep.Mean-clean.Mean)
		}
	}
}

func TestInferWeights(t *testing.T) {
	// Tripling the weight of the positive evidence should raise the
	// damper's posterior mean relative to weight 1.
	light := plantedObs()
	heavy := plantedObs()
	for i := range heavy {
		if heavy[i].ShowsProperty {
			heavy[i].Weight = 3
		}
	}
	a, err := Infer(light, Options{Seed: 5, DisableHMC: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(heavy, Options{Seed: 5, DisableHMC: true})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Lookup(7)
	rb, _ := b.Lookup(7)
	if rb.Mean < ra.Mean-0.05 {
		t.Errorf("weighted mean %.2f fell below unweighted %.2f", rb.Mean, ra.Mean)
	}
}

func TestLookupMissing(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 6, DisableHMC: true, MHSweeps: 100, MHBurnIn: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Lookup(9999); ok {
		t.Error("missing AS found")
	}
}

// TestLookupOnConstructedResult: Lookup works on any Result whose Reports
// are sorted by AS, not only on those Infer built — a decoded wire
// document, say.
func TestLookupOnConstructedResult(t *testing.T) {
	res := &Result{Reports: []ASReport{{AS: 3, Mean: 0.1}, {AS: 7, Mean: 0.9}}}
	for _, want := range res.Reports {
		if got, ok := res.Lookup(want.AS); !ok || got.Mean != want.Mean {
			t.Errorf("Lookup(%d) = %+v, %v; want %+v", want.AS, got, ok, want)
		}
	}
	if _, ok := res.Lookup(5); ok {
		t.Error("Lookup(5) found an AS the result does not hold")
	}
}

func TestInferMissRateOption(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 8, MissRate: 0.1, DisableHMC: true, MHSweeps: 400, MHBurnIn: 100})
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := res.Lookup(7)
	if !ok || !rep.Category.Positive() {
		t.Errorf("damper lost under error model: %+v", rep)
	}
	if _, err := Infer(plantedObs(), Options{MissRate: 2}); err == nil {
		t.Error("invalid miss rate accepted")
	}
}

func TestInferChainsOption(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 9, Chains: 2, DisableHMC: true, MHSweeps: 300, MHBurnIn: 80})
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := res.Lookup(7)
	if math.IsNaN(rep.RHat) {
		t.Error("RHat missing with 2 chains")
	}
	if rep.RHat > 1.5 {
		t.Errorf("RHat = %g", rep.RHat)
	}
}

func TestASReportJSON(t *testing.T) {
	res, err := Infer(plantedObs(), Options{Seed: 10, DisableHMC: true, MHSweeps: 200, MHBurnIn: 50})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Reports)
	if err != nil {
		t.Fatalf("marshal with NaN RHat: %v", err)
	}
	if !bytes.Contains(data, []byte(`"as":1`)) {
		t.Errorf("json = %s", data[:80])
	}
	if bytes.Contains(data, []byte("rhat")) {
		t.Error("NaN rhat serialised")
	}
	// With chains, rhat appears.
	res2, err := Infer(plantedObs(), Options{Seed: 10, Chains: 2, DisableHMC: true, MHSweeps: 200, MHBurnIn: 50})
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(res2.Reports[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data2, []byte("rhat")) {
		t.Errorf("rhat missing: %s", data2)
	}
}
