// mrtinspect decodes an MRT BGP4MP archive — produced by cmd/rfdbeacon or
// downloaded from a route collector — and prints the updates, demonstrating
// the wire-format path of the measurement pipeline. Without arguments it
// generates a small in-memory campaign first, so the example is
// self-contained.
//
//	go run ./examples/mrtinspect [dump.mrt]
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"because/internal/beacon"
	"because/internal/collector"
	"because/internal/experiment"
	"because/internal/mrt"
)

func main() {
	var r io.Reader
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
		fmt.Printf("inspecting %s\n\n", os.Args[1])
	} else {
		data, err := generate()
		if err != nil {
			log.Fatal(err)
		}
		r = bytes.NewReader(data)
		fmt.Printf("no file given; generated a %d-byte dump from a simulated campaign\n\n", len(data))
	}

	reader := mrt.NewReader(r)
	var updates, withdrawals, other int
	var firstTS, lastTS time.Time
	shown := 0
	for {
		rec, err := reader.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			log.Fatalf("decoding: %v", err)
		}
		if firstTS.IsZero() {
			firstTS = rec.Timestamp
		}
		lastTS = rec.Timestamp
		if !rec.IsUpdate() {
			other++
			continue
		}
		if rec.Update.IsWithdrawalOnly() {
			withdrawals++
		} else {
			updates++
		}
		if shown < 12 {
			shown++
			u := rec.Update
			if u.IsWithdrawalOnly() {
				fmt.Printf("%s  peer %-8v WITHDRAW %v\n",
					rec.Timestamp.Format("15:04:05"), rec.PeerAS, u.Withdrawn)
			} else {
				beaconTS := ""
				if u.Aggregator != nil {
					beaconTS = fmt.Sprintf("  beacon-event=%s",
						beacon.DecodeTimestamp(u.Aggregator.ID).Format("15:04:05"))
				}
				fmt.Printf("%s  peer %-8v ANNOUNCE %v  path=%v%s\n",
					rec.Timestamp.Format("15:04:05"), rec.PeerAS, u.NLRI, u.ASPath, beaconTS)
			}
		}
	}
	fmt.Printf("\ntotals: %d announcements, %d withdrawals, %d other records\n",
		updates, withdrawals, other)
	fmt.Printf("time span: %s .. %s\n", firstTS.Format(time.RFC3339), lastTS.Format(time.RFC3339))
}

// generate runs a small beacon campaign and serialises the RIS feed as MRT.
func generate() ([]byte, error) {
	cfg := experiment.DefaultScenario()
	cfg.Topology.Transit = 25
	cfg.Topology.Stubs = 50
	cfg.Sites = 2
	cfg.VPsPerProject = 3
	scenario, err := experiment.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	run, err := scenario.RunCampaignContext(context.Background(), experiment.IntervalCampaign(5*time.Minute, 1))
	if err != nil {
		return nil, err
	}
	var ris []collector.Entry
	for _, e := range run.Entries {
		if e.VP.Project == collector.RIS {
			ris = append(ris, e)
		}
	}
	var buf bytes.Buffer
	if err := collector.WriteMRT(&buf, ris); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
