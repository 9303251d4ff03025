package main

import (
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"because/internal/collector"
	"because/internal/label"
	"because/internal/mrt"
	"because/internal/obs"
)

func TestRunWritesAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	dir := t.TempDir()
	observer := obs.New(nil, obs.NewRegistry())
	o := options{out: dir, interval: 5 * time.Minute, pairs: 1, seed: 2020}
	if err := run(context.Background(), o, observer); err != nil {
		t.Fatal(err)
	}
	// The observer must be wired through to the collector stage.
	snap := scrape(t, observer.Metrics)
	ingested := 0.0
	for name, v := range snap {
		if strings.HasPrefix(name, obs.MetricCollectorUpdates) {
			ingested += v
		}
	}
	if ingested == 0 {
		t.Errorf("no %s series recorded; snapshot: %v", obs.MetricCollectorUpdates, snap)
	}
	// One update dump per project, a RIB snapshot and the labeled paths.
	for _, p := range collector.Projects {
		name := filepath.Join(dir, "updates."+p.String()+".interval-5m0s.mrt")
		f, err := os.Open(name)
		if err != nil {
			t.Fatalf("missing dump: %v", err)
		}
		recs, err := mrt.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) == 0 {
			t.Errorf("%s is empty", name)
		}
		// Every record carries the collector's own end of the session,
		// the identity the collector package archives under.
		for _, rec := range recs {
			if rec.LocalAS != 64999 || rec.LocalIP != netip.MustParseAddr("192.0.2.10") {
				t.Fatalf("%s: record local end AS%d %v, want AS64999 192.0.2.10", name, rec.LocalAS, rec.LocalIP)
			}
		}
	}
	rib, err := os.Open(filepath.Join(dir, "rib.interval-5m0s.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	rr := mrt.NewRIBReader(rib)
	rec, err := rr.Next()
	rib.Close()
	if err != nil {
		t.Fatalf("RIB snapshot unreadable: %v", err)
	}
	if len(rec.Entries) == 0 {
		t.Error("RIB record without entries")
	}
	pf, err := os.Open(filepath.Join(dir, "paths.interval-5m0s.json"))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := label.ReadJSON(pf)
	pf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Error("no labeled paths in JSON")
	}
}

// scrape parses the registry's Prometheus exposition into a series →
// value map: counters and gauges by series, histograms by their
// name_sum / name_count series (bucket lines are skipped).
func scrape(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i > 0 && !strings.HasPrefix(line, "#") && !strings.Contains(line[:i], "_bucket{") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("exposition line %q: %v", line, err)
			}
			out[line[:i]] = v
		}
	}
	return out
}
