// heuristicscompare reproduces the paper's § 6.3 comparison: the three
// passive heuristics vs. BeCAUSe on the same campaign, scored against the
// planted ground truth — including the divergence cases of Table 3 (ASes
// downstream of a damper that fool the heuristics, and heterogeneous
// configurations only the Bayesian pinpointing catches).
//
//	go run ./examples/heuristicscompare
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
	run, err := scenario.RunCampaignContext(ctx, experiment.IntervalCampaign(time.Minute, 3))
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := run.InferContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	scores := run.Heuristics()

	heur := make(map[bgp.ASN]float64)
	heurFlag := make(map[bgp.ASN]bool)
	for _, s := range scores {
		heur[s.ASN] = s.Avg
		heurFlag[s.ASN] = s.RFD
	}

	var asns []bgp.ASN
	for a := range run.MeasuredASes() {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	fmt.Println("AS          truth  BeCAUSe(cat)  heuristics(avg)  verdicts")
	var becRight, heuRight, total int
	for _, asn := range asns {
		_, truth := scenario.Deployments[asn]
		var bec bool
		var cat int
		if sum, ok := res.Lookup(uint32(asn)); ok {
			bec = sum.Category.Positive()
			cat = int(sum.Category)
		}
		note := ""
		switch {
		case bec == truth && heurFlag[asn] != truth:
			note = "  <-- only BeCAUSe correct"
		case bec != truth && heurFlag[asn] == truth:
			note = "  <-- only heuristics correct"
		case bec != truth && heurFlag[asn] != truth:
			note = "  <-- both wrong"
		}
		if bec == truth {
			becRight++
		}
		if heurFlag[asn] == truth {
			heuRight++
		}
		total++
		fmt.Printf("%-10v %-6v cat=%d(%v)     avg=%.2f(%v)%s\n",
			asn, truth, cat, bec, heur[asn], heurFlag[asn], note)
	}
	fmt.Printf("\nagreement with ground truth: BeCAUSe %d/%d, heuristics %d/%d\n",
		becRight, total, heuRight, total)
	fmt.Println("\nthe paper's takeaway holds: the heuristics are tuned for one use")
	fmt.Println("case and mislabel ASes downstream of dampers; BeCAUSe models the")
	fmt.Println("whole path likelihood and stays generic (the same code runs the")
	fmt.Println("ROV experiment unchanged).")
}
