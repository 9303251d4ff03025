package main

// Input generators. Everything the benchmark sends to the system is a pure
// function of the workload seed: the same seed yields byte-identical
// scenario documents and request bodies, a different seed different ones.
// The generators use math/rand/v2's PCG (a specified, version-stable
// stream) rather than the module's own RNG, so a change to the system under
// test can never silently change the benchmark's inputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"because"
	"because/internal/scenario"
	"because/internal/serve"
)

// newRand derives an independent generator stream from the workload seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// campaignWorlds is the size of the campaign workload's fixed world set.
const campaignWorlds = 3

// campaignDocs returns the campaign workload's scenario documents, one per
// world. Each world has the experiment.DefaultScenario shape (235 ASes,
// 7 beacon sites, 8 vantage points per project) plus background prefix
// churn, at a fixed world seed, so every run builds and simulates the same
// worlds and does the same work. The workload seed names the campaign,
// which drives the campaign's propagation-delay and churn streams.
func campaignDocs(seed uint64) ([][]byte, error) {
	docs := make([][]byte, campaignWorlds)
	for k := range docs {
		spec := scenario.Spec{
			FormatVersion: scenario.FormatVersion,
			Name:          fmt.Sprintf("bench-world-%d", k),
			Description:   "Paper-profile world with background prefix churn under a 1-minute, 2-pair Burst/Break campaign.",
			Seed:          2020 + uint64(k),
			Workers:       1,
			Topology: scenario.TopologySpec{
				Tier1: 5, Transit: 70, Stubs: 160,
				TransitMaxProviders: 3, TransitPeerDegree: 1.5, StubMaxProviders: 2,
				BaseASN: 10000,
			},
			Sites:         7,
			VPsPerProject: 8,
			RFD: scenario.RFDSpec{
				Share: 0.5, VendorDefaultShare: 0.6,
				InconsistentDampers: 1, CustomerOnlyDampers: 1,
				MaxSuppress10Share: 0.2, MaxSuppress30Share: 0.2,
			},
			Churn: &scenario.ChurnSpec{BackgroundPrefixes: 8, MeanInterval: scenario.Duration(30 * time.Minute)},
			Campaign: scenario.CampaignSpec{
				Name:      fmt.Sprintf("bench-%d", seed),
				Intervals: []scenario.Duration{scenario.Duration(time.Minute)},
				BurstLen:  scenario.Duration(2 * time.Hour),
				BreakLen:  scenario.Duration(6 * time.Hour),
				Pairs:     2,
			},
		}
		doc, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("rendering scenario document: %w", err)
		}
		docs[k] = doc
	}
	return docs, nil
}

// request is one generated inference request with its planted truth.
type request struct {
	body    []byte
	obs     []serve.Observation
	dampers map[because.ASN]bool
	model   string
	// served is the result payload of the request's latest answer, which
	// a cache hit must reproduce byte for byte.
	served []byte
}

// pathCounts returns each AS's positive and negative path counts.
func (q *request) pathCounts() map[because.ASN][2]int {
	out := map[because.ASN][2]int{}
	for _, o := range q.obs {
		for _, a := range o.Path {
			c := out[a]
			if o.Positive {
				c[0]++
			} else {
				c[1]++
			}
			out[a] = c
		}
	}
	return out
}

// churnRate is the background churn rate of every churn-model request.
const churnRate = 0.05

// plantedRequest draws a tomography request over nAS ASes: nPaths paths of
// 3–6 distinct hops, a tenth of the ASes planted as dampers with
// p ~ U(0.8, 1), and each label drawn from the observation model's
// likelihood, P(positive) = 1 − (1−β)·Π(1 − p_i) over the path's ASes:
// the paper's Eq. 5 for the RFD model (β = 0), the background-churn
// variant for the churn model (β = churnRate). The options keep every
// default except the seed.
func plantedRequest(r *rand.Rand, nAS, nPaths int, model string, seed uint64) (*request, error) {
	const base = 20000
	p := make([]float64, nAS)
	req := &request{dampers: make(map[because.ASN]bool), model: model}
	nDampers := nAS / 10
	if nDampers < 1 {
		nDampers = 1
	}
	for _, i := range r.Perm(nAS)[:nDampers] {
		p[i] = 0.8 + 0.2*r.Float64()
		req.dampers[because.ASN(base+i)] = true
	}
	beta := 0.0
	if model == because.ModelChurn {
		beta = churnRate
	}
	req.obs = make([]serve.Observation, nPaths)
	for j := range req.obs {
		hops := 3 + r.IntN(4)
		path := make([]because.ASN, 0, hops)
		clean := 1 - beta
		for len(path) < hops {
			i := r.IntN(nAS)
			if containsASN(path, because.ASN(base+i)) {
				continue
			}
			path = append(path, because.ASN(base+i))
			clean *= 1 - p[i]
		}
		req.obs[j] = serve.Observation{Path: path, Positive: r.Float64() >= clean}
	}
	opts := serve.RequestOptions{Seed: seed, Model: model}
	if model == because.ModelChurn {
		opts.ChurnRate = churnRate
	}
	body, err := json.Marshal(serve.InferRequest{Observations: req.obs, Options: opts})
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	req.body = body
	return req, nil
}

func containsASN(path []because.ASN, a because.ASN) bool {
	for _, b := range path {
		if b == a {
			return true
		}
	}
	return false
}

// paperRequest is an infer-paper client's dataset: ≈600 ASes, 3000 paths.
func paperRequest(seed uint64, client int) (*request, error) {
	return plantedRequest(newRand(seed, uint64(100+client)), 600, 3000, because.ModelRFD, 0)
}

// withSeed re-encodes a request under a fresh inference seed, so the
// server's result cache never hits on it.
func (q *request) withSeed(seed uint64) ([]byte, error) {
	opts := serve.RequestOptions{Seed: seed, Model: q.model}
	if q.model == because.ModelChurn {
		opts.ChurnRate = churnRate
	}
	return json.Marshal(serve.InferRequest{Observations: q.obs, Options: opts})
}

// Response modes of serve-mixed requests.
const (
	modeSync   = "sync"
	modeStream = "stream"
	modeAsync  = "async"
)

// mixedClient generates one serve-mixed client's request sequence. The
// sequence is fixed by the seed alone: whether an op repeats, which request
// it repeats and which response mode it uses are all drawn up front.
type mixedClient struct {
	r *rand.Rand
	// recent holds the client's latest fresh requests, newest last. The
	// client runs closed loop, so each has completed before a repeat is
	// drawn, and the window is far smaller than the server's 128-entry
	// cache shared by both clients, so every repeat is a cache hit.
	recent []*request
}

const (
	mixedRecent      = 16
	mixedRepeatShare = 2.0 / 3
	mixedChurnShare  = 0.25
)

func newMixedClient(seed uint64, client int) *mixedClient {
	return &mixedClient{r: newRand(seed, uint64(200+client))}
}

// next returns the client's next request, whether it repeats an earlier
// one, and its response mode.
func (c *mixedClient) next() (*request, bool, string, error) {
	repeat := len(c.recent) > 0 && c.r.Float64() < mixedRepeatShare
	mode := []string{modeSync, modeStream, modeAsync}[c.r.IntN(3)]
	if repeat {
		return c.recent[c.r.IntN(len(c.recent))], true, mode, nil
	}
	nPaths := 10 + c.r.IntN(191)
	model := because.ModelRFD
	if c.r.Float64() < mixedChurnShare {
		model = because.ModelChurn
	}
	req, err := plantedRequest(c.r, 5+nPaths/2, nPaths, model, c.r.Uint64())
	if err != nil {
		return nil, false, "", err
	}
	c.recent = append(c.recent, req)
	if len(c.recent) > mixedRecent {
		c.recent = c.recent[1:]
	}
	return req, false, mode, nil
}

// generatorFingerprint renders every input a workload sends for a seed —
// the scenario documents, both clients' datasets, and the first ops of both
// serve-mixed clients — into one byte string for the self-test.
func generatorFingerprint(seed uint64) ([]byte, error) {
	var buf bytes.Buffer
	docs, err := campaignDocs(seed)
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		buf.Write(d)
	}
	for client := 0; client < 2; client++ {
		req, err := paperRequest(seed, client)
		if err != nil {
			return nil, err
		}
		buf.Write(req.body)
		mc := newMixedClient(seed, client)
		for i := 0; i < 64; i++ {
			req, repeat, mode, err := mc.next()
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&buf, "%t %s ", repeat, mode)
			buf.Write(req.body)
		}
	}
	return buf.Bytes(), nil
}

// selfTest checks the generators: the same seed gives byte-identical inputs,
// the next seed different ones, and every scenario document passes the
// strict scenario.Parse.
func selfTest(seed uint64) error {
	a, err := generatorFingerprint(seed)
	if err != nil {
		return err
	}
	b, err := generatorFingerprint(seed)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("generator self-test: seed %d gave two different input sets", seed)
	}
	c, err := generatorFingerprint(seed + 1)
	if err != nil {
		return err
	}
	if bytes.Equal(a, c) {
		return fmt.Errorf("generator self-test: seeds %d and %d gave the same inputs", seed, seed+1)
	}
	for _, s := range []uint64{seed, seed + 1} {
		docs, err := campaignDocs(s)
		if err != nil {
			return err
		}
		for _, d := range docs {
			if _, err := scenario.Parse(d); err != nil {
				return fmt.Errorf("generator self-test: generated scenario document rejected: %w", err)
			}
		}
	}
	return nil
}
