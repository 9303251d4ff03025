package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"because/internal/bgp"
)

// Golden hashes of the inference output per observation model. The rfd
// hashes were captured before the likelihood was first lifted behind a
// model interface, the churn hashes while the churn model still had its
// own copy of the likelihood kernels. The refactor contract is
// bit-identity, so these constants must never change without a deliberate
// (and documented) sampler-semantics break.
const (
	goldenDefaultModelSHA     = "0d22c31f39dd65e74522e87de28cf623c069afadd02e74ce777f28890458e17c"
	goldenMissRateModelSHA    = "e9390551c800b90a69c261138ffa581b04a749ca600fe7953e6a6f04bcde034e"
	goldenChurnModelSHA       = "65b2d41b3d7359caa9191b260c61a3ea04e454ba122ed073998559e2f32b73a5"
	goldenChurnNoMissModelSHA = "d6765aeca9c5abc1b7036f45c14fb83f8decf2ea806c0c6e0106b1475e98c425"
)

// goldenObs builds a fixed synthetic tomography input: 40 paths over a
// 12-AS universe, labels assigned by arithmetic (no RNG), with a couple of
// heavy-hitter ASes appearing on most positive paths.
func goldenObs() []PathObs {
	var obs []PathObs
	for k := 0; k < 40; k++ {
		path := []bgp.ASN{
			bgp.ASN(65000 + k%5),
			bgp.ASN(65100 + (k*3)%7),
			bgp.ASN(65200 + (k*5)%4),
		}
		positive := k%5 == 0 || (k*3)%7 == 1
		w := 1.0
		if k%8 == 0 {
			w = 2.0
		}
		obs = append(obs, PathObs{ASNs: path, Positive: positive, Weight: w})
	}
	return obs
}

// hashResult folds every bit that the samplers produced — chain order,
// method tags, raw sample bits, Metropolis counters and the derived
// summaries — into one digest.
func hashResult(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	writeF := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	writeI := func(n int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	for _, c := range res.Chains {
		h.Write([]byte(c.Method))
		writeI(c.Accepted)
		writeI(c.Proposed)
		writeI(c.Divergent)
		for _, s := range c.Samples {
			for _, v := range s {
				writeF(v)
			}
		}
	}
	for _, s := range res.Summaries {
		writeI(int(s.ASN))
		writeF(s.Mean)
		writeF(s.HDPI.Lo)
		writeF(s.HDPI.Hi)
		writeF(s.Certainty)
		writeI(int(s.Category))
	}
	writeI(len(res.Pinpointed))
	return hex.EncodeToString(h.Sum(nil))
}

// TestDefaultModelGolden proves that the likelihood refactors left every
// model's Infer output byte-identical to the implementation the hashes
// were recorded on.
func TestDefaultModelGolden(t *testing.T) {
	ds, err := NewDataset(goldenObs())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "default",
			cfg: Config{
				Seed: 11, Chains: 2,
				MH:  MHConfig{Sweeps: 200, BurnIn: 50},
				HMC: HMCConfig{Iterations: 60, BurnIn: 20, Leapfrog: 6},
			},
			want: goldenDefaultModelSHA,
		},
		{
			name: "missrate",
			cfg: Config{
				Seed: 23, Model: Model{MissRate: 0.05},
				MH:  MHConfig{Sweeps: 150, BurnIn: 30},
				HMC: HMCConfig{Iterations: 50, BurnIn: 10, Leapfrog: 6},
			},
			want: goldenMissRateModelSHA,
		},
		{
			name: "churn",
			cfg: Config{
				Seed: 29, Chains: 2, Model: Model{Name: "churn", BackgroundRate: 0.08, MissRate: 0.04},
				MH:  MHConfig{Sweeps: 200, BurnIn: 50},
				HMC: HMCConfig{Iterations: 60, BurnIn: 20, Leapfrog: 6},
			},
			want: goldenChurnModelSHA,
		},
		{
			name: "churn-nomiss",
			cfg: Config{
				Seed: 31, Model: Model{Name: "churn", BackgroundRate: 0.05},
				MH:  MHConfig{Sweeps: 150, BurnIn: 30},
				HMC: HMCConfig{Iterations: 50, BurnIn: 10, Leapfrog: 6},
			},
			want: goldenChurnNoMissModelSHA,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := InferContext(context.Background(), ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashResult(res); got != tc.want {
				t.Fatalf("%s output drifted from its golden:\n got %s\nwant %s", tc.name, got, tc.want)
			}
		})
	}
}
