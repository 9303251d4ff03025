package core_test

import (
	"fmt"
	"math"
	"testing"

	"because/internal/bgp"
	"because/internal/core"
)

// byteSource hands out fuzz bytes, then zeros once they run out.
type byteSource []byte

func (b *byteSource) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// prob maps the next two bytes onto a probability, with the boundary
// values the clamp exists for reachable directly.
func (b *byteSource) prob() float64 {
	switch v := b.next(); v {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 1e-12
	case 3:
		return 1 - 1e-12
	default:
		return float64(uint16(v)<<8|uint16(b.next())) / 65535
	}
}

// refTerms is the per-path arithmetic of one model, written out
// independently of the model code: the log-probability of a positive and
// of a negative label given a path's log product.
type refTerms struct {
	pos, neg func(logQ float64) float64
}

func rfdTerms(m float64) refTerms {
	return refTerms{
		pos: func(logQ float64) float64 {
			t := core.Log1mExp(logQ)
			if m > 0 {
				t += math.Log1p(-m)
			}
			return t
		},
		neg: func(logQ float64) float64 {
			if m <= 0 {
				return logQ
			}
			return math.Log((1-m)*math.Exp(logQ) + m)
		},
	}
}

func churnTerms(m, bg float64) refTerms {
	logBG := math.Log1p(-bg)
	return refTerms{
		pos: func(logQ float64) float64 {
			t := core.Log1mExp(logQ + logBG)
			if m > 0 {
				t += math.Log1p(-m)
			}
			return t
		},
		neg: func(logQ float64) float64 {
			t := logQ + logBG
			if m <= 0 {
				return t
			}
			return math.Log((1-m)*math.Exp(t) + m)
		},
	}
}

// FuzzModelStateInvariants drives the likelihood state under both
// observation models through a fuzzed sequence of
// DeltaFor/Apply/SetP/Recompute calls over a small fuzzed dataset and
// checks the state's invariants after every call, each against reference
// arithmetic written out independently of the state: lq[i] is bitwise log1p(-p_i); after SetP/Recompute every logQ[j]
// is bitwise the in-order sum of log1p(-p_i) over the path; DeltaFor is
// bitwise the two-log1p reference formula, and it matches the LogLik
// difference of actually applying the move to within 1e-9; and whenever
// the term cache is valid, each path's cached term is bitwise the
// reference term at its logQ. DeltaFor is interleaved with the Apply of
// its own move (which commits the candidate terms), of another move, a
// repeated Apply, and a SetP between the two.
func FuzzModelStateInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 6, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x40, 0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{7, 9, 3, 200, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 3, 1, 40, 0, 0, 0, 0, 0, 0, 2, 3, 1, 2, 3, 0, 1, 2, 3, 4, 0, 1})
	// Each fails a term cache that commits on anything short of the
	// exact pending move (another value at the proposal's node, the
	// proposal's value at another node) or that survives a SetP.
	f.Add([]byte("0y000000000000001"))
	f.Add([]byte("02C0000\x00\x00\x01\x02%2"))
	f.Add([]byte("02000000000002"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		n := 2 + int(src.next()%7)
		obs := make([]core.PathObs, 1+int(src.next()%10))
		for k := range obs {
			hops := 1 + int(src.next())%n
			start := int(src.next())
			path := make([]bgp.ASN, hops)
			for h := range path {
				path[h] = bgp.ASN(1 + (start+h)%n)
			}
			w := src.next()
			obs[k] = core.PathObs{ASNs: path, Positive: w&1 == 1, Weight: float64(w>>1) / 16}
		}
		ds, err := core.NewDataset(obs)
		if err != nil {
			t.Fatal(err)
		}
		m := float64(src.next()%4) / 8
		bg := float64(src.next()%4) / 8
		p := make([]float64, ds.NumNodes())
		for i := range p {
			p[i] = src.prob()
		}
		for _, model := range []struct {
			om    core.Model
			terms refTerms
		}{
			{core.Model{MissRate: m}, rfdTerms(m)},
			{core.Model{Name: "churn", BackgroundRate: bg, MissRate: m}, churnTerms(m, bg)},
		} {
			st := core.NewState(ds, p, model.om)
			checkSums(t, ds, st, "NewState")
			ops := src
			for step := 0; step < 64 && len(ops) > 0; step++ {
				op := ops.next() % 8
				i := int(ops.next()) % ds.NumNodes()
				delta := func() float64 {
					x := ops.prob()
					checkDelta(t, ds, model.om, st, model.terms, i, x)
					return x
				}
				setP := func() {
					q := make([]float64, ds.NumNodes())
					for k := range q {
						q[k] = ops.prob()
					}
					st.SetP(q)
					checkSums(t, ds, st, "SetP")
				}
				switch op {
				case 0:
					delta()
				case 1:
					st.Apply(i, ops.prob())
				case 2:
					setP()
				case 3:
					st.Recompute()
					checkSums(t, ds, st, "Recompute")
				case 4: // the proposal's own move, accepted
					st.Apply(i, delta())
				case 5: // a move other than the proposal's
					delta()
					st.Apply(int(ops.next())%ds.NumNodes(), ops.prob())
				case 6: // the proposal's move, then another at its node
					st.Apply(i, delta())
					checkTerms(t, ds, st, model.terms, "first Apply")
					st.Apply(i, ops.prob())
				case 7: // the proposal's move, after a SetP
					x := delta()
					setP()
					st.Apply(i, x)
				}
				checkNodeLogs(t, st, fmt.Sprint(model.om), op)
				checkTerms(t, ds, st, model.terms, fmt.Sprintf("op %d", op))
			}
		}
	})
}

// checkTerms asserts that a valid term cache holds, bitwise, each path's
// reference term at its current logQ.
func checkTerms(t *testing.T, ds *core.Dataset, st *core.State, terms refTerms, after string) {
	t.Helper()
	term, ok := st.TermCache()
	if !ok {
		return
	}
	for j, logQ := range st.LogQ() {
		want := terms.neg(logQ)
		if ds.PathPositive(j) {
			want = terms.pos(logQ)
		}
		if math.Float64bits(term[j]) != math.Float64bits(want) {
			t.Fatalf("after %s: cached term[%d] = %v, want %v at logQ %v", after, j, term[j], want, logQ)
		}
	}
}

// checkNodeLogs asserts lq[i] == log1p(-p_i) bitwise.
func checkNodeLogs(t *testing.T, st *core.State, model string, op byte) {
	t.Helper()
	lq := st.NodeLogs()
	for i, pi := range st.Probabilities() {
		if want := math.Log1p(-pi); math.Float64bits(lq[i]) != math.Float64bits(want) {
			t.Fatalf("%s after op %d: lq[%d] = %v, want log1p(-%v) = %v", model, op, i, lq[i], pi, want)
		}
	}
}

// checkSums asserts every logQ[j] is the in-order sum of log1p(-p_i) over
// path j, bitwise.
func checkSums(t *testing.T, ds *core.Dataset, st *core.State, after string) {
	t.Helper()
	p, logQ := st.Probabilities(), st.LogQ()
	for j := 0; j < ds.NumPaths(); j++ {
		s := 0.0
		for _, i := range ds.PathNodes(j) {
			s += math.Log1p(-p[i])
		}
		if math.Float64bits(logQ[j]) != math.Float64bits(s) {
			t.Fatalf("after %s: logQ[%d] = %v, want %v", after, j, logQ[j], s)
		}
	}
}

// checkDelta compares DeltaFor(i, x) with the reference formula that
// evaluates both log1p terms, bitwise, and checks on a fresh state at
// st's vector that DeltaFor matches the LogLik difference of applying the
// move. st itself carries the drift of its incremental updates, which the
// reference formula shares and a fresh state does not; st is left with
// its move pending.
func checkDelta(t *testing.T, ds *core.Dataset, om core.Model, st *core.State, terms refTerms, i int, x float64) {
	t.Helper()
	got := st.DeltaFor(i, x)
	pNew := core.ClampProb(x)
	dLogQ := math.Log1p(-pNew) - math.Log1p(-st.Probabilities()[i])
	logQ := st.LogQ()
	want := 0.0
	for _, j := range ds.NodePathIndices(i) {
		term := terms.neg
		if ds.PathPositive(j) {
			term = terms.pos
		}
		want += ds.PathWeight(j) * (term(logQ[j]+dLogQ) - term(logQ[j]))
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("DeltaFor(%d, %v) = %v, reference formula %v", i, x, got, want)
	}
	fresh := core.NewState(ds, st.Probabilities(), om)
	before, delta := fresh.LogLik(), fresh.DeltaFor(i, x)
	fresh.Apply(i, x)
	if diff := fresh.LogLik() - before; math.Abs(diff-delta) > 1e-9*math.Max(1, math.Abs(before)) {
		t.Fatalf("DeltaFor(%d, %v) = %v on a fresh state, LogLik difference %v", i, x, delta, diff)
	}
}
