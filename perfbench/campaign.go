package main

// The campaign workload: one closed-loop client doing what rfdbeacon plus
// becausectl do for a generated paper-profile world — build the world, run
// the beacon campaign, label, archive the vantage-point feeds as MRT and
// read them back, infer, and score against the planted truth.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"time"

	"because/internal/bgp"
	"because/internal/collector"
	"because/internal/core"
	"because/internal/experiment"
	"because/internal/mrt"
	"because/internal/obs"
	"because/internal/scenario"
	"because/internal/stats"
	"because/internal/topology"
)

// pinnedMRT is the sha256 of each world's MRT archive at the default seed.
// The simulator must stay byte-identical, so a change here is a behaviour
// change of netsim, router, collector, beacon or the bgp/mrt codecs.
var pinnedMRT = map[uint64][campaignWorlds]string{
	defaultSeed: {
		"da301d2506f0312e44a6a4d7288533907f16580df74ccdaeab6d9f52a236cb35",
		"ae2eefe9f2c5b117b224ab9f7c8263da9d6548e0278d98afc3aa1bdea8e95dfb",
		"08f54c292d6e8d1ed97d783612ee5a765043dfa0427ff5b0f01346fe6f662155",
	},
}

// Semantic floors on the campaign's inference, against the planted truth:
// precision over every planted damper, recall over the detectable ones.
const (
	campaignMinPrecision = 0.6
	campaignMinRecall    = 0.4
)

// The collector identity the archives are written under, as the collector
// package writes its own MRT dumps.
var (
	collectorAS = bgp.ASN(64999)
	collectorIP = netip.MustParseAddr("192.0.2.10")
)

type campaignWorkload struct {
	seed uint64
	docs [][]byte
	// first holds each world's op digest from its first run in this
	// process; every later op on the world must reproduce it.
	first []string
}

// setup generates and self-tests the inputs, then warms up by building
// every world once.
func (w *campaignWorkload) setup(bool) error {
	if err := selfTest(w.seed); err != nil {
		return err
	}
	docs, err := campaignDocs(w.seed)
	if err != nil {
		return err
	}
	w.docs = docs
	if w.first == nil {
		w.first = make([]string, len(docs))
	}
	for _, doc := range docs {
		spec, err := scenario.Parse(doc)
		if err == nil {
			_, err = spec.Build()
		}
		if err != nil {
			return fmt.Errorf("campaign warm-up: %w", err)
		}
	}
	return nil
}

func (w *campaignWorkload) finish(bool) (map[string]float64, error) { return nil, nil }

// op runs the pipeline on world i mod campaignWorlds.
func (w *campaignWorkload) op(_, i int, traced bool) sample {
	k := i % len(w.docs)
	start := time.Now()
	ctx := context.Background()
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace("op", fmt.Sprintf("campaign/%d", k))
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}
	out, err := w.pipeline(ctx, k, traced)
	tr.Root().End()
	s := sample{lat: time.Since(start).Seconds(), err: err}
	if err == nil {
		s.err = w.check(k, out)
	}
	if s.err != nil || !traced {
		return s
	}
	root, l := chainsInSequence(tr.Export().Root), out.layers
	l["topology.generate_s"] = spanSeconds(root, "topology.generate")
	l["experiment.world_s"] = spanSeconds(root, "experiment.world")
	l["label.paths_s"] = spanSeconds(root, "label")
	l["sim.campaign_s"] = spanSeconds(root, "sim") - l["label.paths_s"]
	l["sim.updates_per_s"] = l["sim.updates"] / l["sim.campaign_s"]
	l["mrt.encode_s"] = spanSeconds(root, "mrt.encode")
	l["mrt.decode_s"] = spanSeconds(root, "mrt.decode")
	samplerMetrics(root, "core", l)
	// Run.InferContext builds the dataset outside any program span, so it
	// is the infer span's self time.
	l["core.dataset_s"] = spanSeconds(root, "infer") - spanSeconds(root, "sample") - l["core.summarize_s"] - l["core.pinpoint_s"]
	l["core.mh.ess_per_s"], l["core.hmc.ess_per_s"] = essPerSecond(out.res, root)
	s.layers = l
	s.self, s.problems = selfTimes(root, campaignLayerOf)
	return s
}

// campaignOutcome is what one op produced, for checking and reporting.
type campaignOutcome struct {
	mrtDigest, digest string
	precision, recall float64
	res               *core.Result
	layers            map[string]float64
}

// pipeline is the op body. Each call into a layer runs under a span of the
// benchmark's own; the program adds its campaign, label and sampler spans
// beneath them when ctx carries a trace.
func (w *campaignWorkload) pipeline(ctx context.Context, k int, traced bool) (*campaignOutcome, error) {
	out := &campaignOutcome{layers: map[string]float64{}}
	var spec *scenario.Spec
	err := inSpan(ctx, "scenario.parse", func(context.Context) (err error) {
		spec, err = scenario.Parse(w.docs[k])
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := spec.ScenarioConfig()
	var g *topology.Graph
	if err := inSpan(ctx, "topology.generate", func(context.Context) (err error) {
		// The same stream experiment.NewScenario hands the generator.
		g, err = topology.Generate(cfg.Topology, stats.NewRNG(cfg.Seed).Split())
		return err
	}); err != nil {
		return nil, err
	}
	var world *experiment.Scenario
	if err := inSpan(ctx, "experiment.world", func(context.Context) (err error) {
		world, err = experiment.NewScenarioFromGraph(cfg, g)
		return err
	}); err != nil {
		return nil, err
	}

	var run *experiment.Run
	var simAlloc allocMeter
	if err := inSpan(ctx, "sim", func(ctx context.Context) (err error) {
		simAlloc.start(traced)
		run, err = world.RunCampaignContext(ctx, spec.BeaconCampaign())
		simAlloc.stop(out.layers, "sim.alloc_mb", "sim.gc_cpu_s")
		return err
	}); err != nil {
		return nil, err
	}

	var archives [][]byte
	if err := inSpan(ctx, "mrt.encode", func(context.Context) (err error) {
		archives, err = encodeMRT(run.Entries)
		return err
	}); err != nil {
		return nil, err
	}
	if err := inSpan(ctx, "mrt.decode", func(context.Context) error {
		return decodeMRT(archives, run.Entries)
	}); err != nil {
		return nil, err
	}

	var ds *core.Dataset
	var coreAlloc allocMeter
	if err := inSpan(ctx, "infer", func(ctx context.Context) (err error) {
		coreAlloc.start(traced)
		out.res, ds, err = run.InferContext(ctx)
		coreAlloc.stop(out.layers, "core.alloc_mb", "")
		return err
	}); err != nil {
		return nil, err
	}

	if err := inSpan(ctx, "score", func(context.Context) error {
		out.precision, out.recall = scoreCampaign(world, ds, out.res)
		out.mrtDigest, out.digest = digests(archives, run, out.res)
		return nil
	}); err != nil {
		return nil, err
	}

	rfd := 0
	for _, m := range run.Measurements {
		if m.RFD {
			rfd++
		}
	}
	bytesTotal := 0
	for _, a := range archives {
		bytesTotal += len(a)
	}
	out.layers["sim.updates"] = float64(run.UpdatesSent)
	out.layers["collector.entries"] = float64(len(run.Entries))
	out.layers["label.measurements"] = float64(len(run.Measurements))
	out.layers["label.rfd_share"] = float64(rfd) / float64(len(run.Measurements))
	out.layers["mrt.bytes"] = float64(bytesTotal)
	return out, nil
}

// check applies the campaign oracle: the pinned archive digest at the
// default seed, agreement with the world's first op, and the semantic
// floors on the inference.
func (w *campaignWorkload) check(k int, out *campaignOutcome) error {
	if pins, ok := pinnedMRT[w.seed]; ok && pins[k] != out.mrtDigest {
		return fmt.Errorf("world %d: MRT archive sha256 %s, pinned %s", k, out.mrtDigest, pins[k])
	}
	if w.first[k] == "" {
		w.first[k] = out.digest
	} else if w.first[k] != out.digest {
		return fmt.Errorf("world %d: op output differs from the world's first op", k)
	}
	if out.precision < campaignMinPrecision || out.recall < campaignMinRecall {
		return fmt.Errorf("world %d: precision %.2f / recall %.2f below floors %.2f / %.2f",
			k, out.precision, out.recall, campaignMinPrecision, campaignMinRecall)
	}
	return nil
}

// encodeMRT writes the feeds as one MRT archive per collector project, in
// export order, through mrt.Writer — the dumps rfdbeacon produces.
func encodeMRT(entries []collector.Entry) ([][]byte, error) {
	bufs := make([]bytes.Buffer, len(collector.Projects))
	writers := make([]*mrt.Writer, len(bufs))
	for i := range bufs {
		writers[i] = mrt.NewWriter(&bufs[i])
	}
	for _, e := range entries {
		if err := writers[e.VP.Project].WriteUpdate(e.Exported, e.VP.AS, collectorAS, e.VP.Addr(), collectorIP, e.Update); err != nil {
			return nil, fmt.Errorf("encoding MRT: %w", err)
		}
	}
	out := make([][]byte, len(bufs))
	for i := range bufs {
		out[i] = bufs[i].Bytes()
	}
	return out, nil
}

// decodeMRT reads every archive back through collector.ReadMRT and checks
// that each record round-trips its entry.
func decodeMRT(archives [][]byte, entries []collector.Entry) error {
	var want [][]collector.Entry = make([][]collector.Entry, len(archives))
	for _, e := range entries {
		want[e.VP.Project] = append(want[e.VP.Project], e)
	}
	for p, archive := range archives {
		got, err := collector.ReadMRT(bytes.NewReader(archive), collector.Projects[p])
		if err != nil {
			return fmt.Errorf("decoding MRT: %w", err)
		}
		if len(got) != len(want[p]) {
			return fmt.Errorf("MRT round trip: %d records read back, %d written", len(got), len(want[p]))
		}
		for i, g := range got {
			e := want[p][i]
			if g.VP.AS != e.VP.AS || g.Exported.Unix() != e.Exported.Unix() ||
				!prefixesEqual(g.Update.NLRI, e.Update.NLRI) || !prefixesEqual(g.Update.Withdrawn, e.Update.Withdrawn) ||
				!g.Update.ASPath.Equal(e.Update.ASPath) {
				return fmt.Errorf("MRT round trip: record %d of project %v differs", i, collector.Projects[p])
			}
		}
	}
	return nil
}

func prefixesEqual(a, b []bgp.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scoreCampaign scores the flagged ASes against the planted deployment.
func scoreCampaign(world *experiment.Scenario, ds *core.Dataset, res *core.Result) (precision, recall float64) {
	planted := asnSet(world.TrueDampers())
	detectable := asnSet(world.DetectableDampers())
	flagged, truePos, found := 0, 0, 0
	for _, asn := range ds.Nodes() {
		sum, ok := res.Lookup(uint32(asn))
		if !ok || !sum.Category.Positive() {
			continue
		}
		flagged++
		if planted[asn] {
			truePos++
		}
		if detectable[asn] {
			found++
		}
	}
	return ratio(truePos, flagged), ratio(found, len(detectable))
}

func asnSet(asns []bgp.ASN) map[bgp.ASN]bool {
	out := make(map[bgp.ASN]bool, len(asns))
	for _, a := range asns {
		out[a] = true
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// digests hashes the archives alone (the pinned simulator output) and the
// whole op output: archives, labels and inferred categories.
func digests(archives [][]byte, run *experiment.Run, res *core.Result) (mrtDigest, digest string) {
	h := sha256.New()
	for _, a := range archives {
		h.Write(a)
	}
	mrtDigest = hex.EncodeToString(h.Sum(nil))
	for _, m := range run.Measurements {
		fmt.Fprintf(h, "%s=%t;", m.Key(), m.RFD)
	}
	for _, s := range res.Summaries {
		fmt.Fprintf(h, "%d:%d;", s.ASN, s.Category)
	}
	return mrtDigest, hex.EncodeToString(h.Sum(nil))
}

// campaignLayerOf maps a span of the campaign op's trace to its layer.
func campaignLayerOf(span string) string {
	switch span {
	case "scenario.parse", "experiment.world":
		return "experiment"
	case "topology.generate":
		return "topology"
	case "sim", "campaign", "collector.attach":
		return "sim"
	case "label":
		return "label"
	case "mrt.encode", "mrt.decode":
		return "mrt"
	case "infer", "sample", "hmc", "summarize", "pinpoint":
		return "core"
	}
	if isChainSpan(span) {
		return "core"
	}
	return "harness"
}
