// rfdcampaign runs the full measurement pipeline end to end on a synthetic
// Internet: generate a topology, plant an RFD deployment (the hidden ground
// truth), oscillate two-phase beacons from seven sites, collect the
// vantage-point feeds, label paths by the RFD signature, run BeCAUSe, and
// compare the inferred dampers against the plant.
//
//	go run ./examples/rfdcampaign
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"because/internal/bgp"
	"because/internal/experiment"
)

func main() {
	ctx := context.Background()
	cfg := experiment.DefaultScenario()
	scenario, err := experiment.NewScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d ASes (%d links), %d beacon sites, %d vantage points\n",
		scenario.Graph.Len(), scenario.Graph.Links(), len(scenario.Sites), len(scenario.VPs))
	fmt.Printf("hidden ground truth: %d ASes deploy RFD\n\n", len(scenario.Deployments))

	fmt.Println("running the 1-minute beacon campaign (2h bursts, 3 pairs)...")
	run, err := scenario.RunCampaignContext(ctx, experiment.IntervalCampaign(time.Minute, 3))
	if err != nil {
		log.Fatal(err)
	}
	rfdPaths := 0
	for _, m := range run.Measurements {
		if m.RFD {
			rfdPaths++
		}
	}
	fmt.Printf("collected %d updates at the collectors; %d labeled paths, %d with the RFD signature\n\n",
		len(run.Entries), len(run.Measurements), rfdPaths)

	fmt.Println("running BeCAUSe (Metropolis-Hastings + Hamiltonian Monte Carlo)...")
	res, ds, err := run.InferContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inferred marginals for %d ASes\n\n", ds.NumNodes())

	// Score against the plant.
	var flagged []bgp.ASN
	for _, s := range res.Positives() {
		flagged = append(flagged, s.ASN)
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i] < flagged[j] })
	fmt.Println("flagged ASes vs hidden ground truth:")
	tp, fp := 0, 0
	for _, asn := range flagged {
		d, planted := scenario.Deployments[asn]
		verdict := "FALSE POSITIVE"
		if planted {
			tp++
			verdict = fmt.Sprintf("correct (%s, mode %s)", d.ParamsName, d.Mode)
		} else {
			fp++
		}
		sum, _ := res.Lookup(uint32(asn))
		fmt.Printf("  %v mean=%.2f certainty=%.2f -> %s\n", asn, sum.Mean, sum.Certainty, verdict)
	}
	missed := 0
	for _, asn := range scenario.DetectableDampers() {
		found := false
		for _, f := range flagged {
			if f == asn {
				found = true
			}
		}
		if !found {
			missed++
			fmt.Printf("  missed detectable damper %v\n", asn)
		}
	}
	fmt.Printf("\nprecision %d/%d, recall %d/%d over detectable dampers\n",
		tp, tp+fp, tp, tp+missed)
}
