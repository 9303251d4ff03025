package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"because/internal/bgp"
)

// Golden hashes of the default-model inference output, captured before the
// likelihood was lifted behind the ObservationModel interface. The refactor
// contract is bit-identity: the default RFD model must reproduce the exact
// pre-interface chains, so these constants must never change without a
// deliberate (and documented) sampler-semantics break.
const (
	goldenDefaultModelSHA  = "0d22c31f39dd65e74522e87de28cf623c069afadd02e74ce777f28890458e17c"
	goldenMissRateModelSHA = "e9390551c800b90a69c261138ffa581b04a749ca600fe7953e6a6f04bcde034e"
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

// TestDefaultModelGolden proves the ObservationModel refactor left the
// default RFD model's Infer output byte-identical to the pre-refactor
// implementation: the hashes below were recorded on the commit before the
// likelihood moved behind the interface.
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
				Seed: 23, Model: RFDModel{MissRate: 0.05},
				MH:  MHConfig{Sweeps: 150, BurnIn: 30},
				HMC: HMCConfig{Iterations: 50, BurnIn: 10, Leapfrog: 6},
			},
			want: goldenMissRateModelSHA,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Infer(ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashResult(res); got != tc.want {
				t.Fatalf("default-model output drifted from the pre-refactor golden:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
