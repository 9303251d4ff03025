// Package core implements BeCAUSe — BayEsian Computation for AUtonomous
// SystEms — the paper's tomography engine. Given a set of AS paths, each
// labeled with whether it exhibited a binary property (RFD, ROV, ...), the
// engine infers for every AS the posterior distribution of the proportion
// p_i of routes to which the AS applies the property, using two MCMC
// samplers: Metropolis–Hastings and Hamiltonian Monte Carlo.
//
// The likelihood follows § 3.1 of the paper: with q_i = 1 - p_i,
//
//	P(path J shows no A) = Π_{i∈J} q_i
//	P(path J shows A)    = 1 - Π_{i∈J} q_i
//
// and all computation is done in log space so long paths and extreme
// probabilities remain stable. Posterior marginals are summarised by their
// mean and 95% highest-posterior-density interval, mapped to the paper's
// five certainty categories, and a second pinpointing pass (Eq. 8) flags
// ASes that damp inconsistently.
package core

import (
	"fmt"
	"math"

	"because/internal/bgp"
)

// PathObs is one labeled path observation: the cleaned AS path and whether
// the path exhibited the property under study.
type PathObs struct {
	ASNs []bgp.ASN
	// Positive means the path showed the property (e.g. was damped).
	Positive bool
	// Weight scales the observation's likelihood contribution; 0 means 1.
	Weight float64
}

// Dataset is the compiled tomography input: the set of observations and the
// node (AS) universe they span.
//
// Both incidence lists are flat CSR arrays — every list in one int32 array,
// delimited by an offsets array one longer than the list count — so the
// kernels stream them without chasing a slice header per path or node:
// path j's node indices, in path order, are
// pathNodes[pathStart[j]:pathStart[j+1]], and node i's path indices, in
// ascending order, are nodePaths[nodeStart[i]:nodeStart[i+1]]. Labels
// and weights are per-path arrays beside them.
type Dataset struct {
	nodes []bgp.ASN
	index map[bgp.ASN]int

	pathStart, pathNodes []int32
	nodeStart, nodePaths []int32
	positive             []bool
	weight               []float64
}

// ObservationError is a NewDataset failure on one observation: Index is
// its position in the input and Field the part at fault, "path" or
// "weight".
type ObservationError struct {
	Index  int
	Field  string
	Reason string
}

func (e *ObservationError) Error() string {
	return fmt.Sprintf("core: observation %d: %s: %s", e.Index, e.Field, e.Reason)
}

// NewDataset compiles observations. An empty path, a weight that is not
// finite and non-negative, and an AS appearing twice on one (cleaned)
// path — the likelihood assumes one Bernoulli choice per AS per path —
// are each an *ObservationError on the first observation at fault.
func NewDataset(obs []PathObs) (*Dataset, error) {
	hops := 0
	for _, o := range obs {
		hops += len(o.ASNs)
	}
	if hops > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d path entries exceed the int32 index space", hops)
	}
	ds := &Dataset{
		index:     make(map[bgp.ASN]int),
		pathStart: make([]int32, 1, len(obs)+1),
		pathNodes: make([]int32, 0, hops),
		positive:  make([]bool, len(obs)),
		weight:    make([]float64, len(obs)),
	}
	// lastOn[i] is one more than the last observation node i appeared on,
	// which rejects a repeated AS without a per-path set.
	var lastOn []int
	for k, o := range obs {
		if len(o.ASNs) == 0 {
			return nil, &ObservationError{k, "path", "empty AS path"}
		}
		w := o.Weight
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, &ObservationError{k, "weight", "must be finite and non-negative"}
		}
		if w == 0 {
			w = 1
		}
		ds.positive[k], ds.weight[k] = o.Positive, w
		for _, a := range o.ASNs {
			i, ok := ds.index[a]
			if !ok {
				i = len(ds.nodes)
				ds.index[a] = i
				ds.nodes = append(ds.nodes, a)
				lastOn = append(lastOn, 0)
			}
			if lastOn[i] == k+1 {
				return nil, &ObservationError{k, "path", fmt.Sprintf("repeats %v (clean the path first)", a)}
			}
			lastOn[i] = k + 1
			ds.pathNodes = append(ds.pathNodes, int32(i))
		}
		ds.pathStart = append(ds.pathStart, int32(len(ds.pathNodes)))
	}
	// Counting sort of the path lists into the node lists: count each
	// node's paths, turn the counts into offsets, then fill in path order.
	ds.nodeStart = make([]int32, len(ds.nodes)+1)
	for _, i := range ds.pathNodes {
		ds.nodeStart[i+1]++
	}
	for i := range ds.nodes {
		ds.nodeStart[i+1] += ds.nodeStart[i]
	}
	ds.nodePaths = make([]int32, len(ds.pathNodes))
	fill := append([]int32(nil), ds.nodeStart[:len(ds.nodes)]...)
	for j := range obs {
		for _, i := range ds.pathNodesOf(j) {
			ds.nodePaths[fill[i]] = int32(j)
			fill[i]++
		}
	}
	return ds, nil
}

// pathNodesOf returns path j's node indices, in path order.
//
//lint:hotpath
func (ds *Dataset) pathNodesOf(j int) []int32 {
	return ds.pathNodes[ds.pathStart[j]:ds.pathStart[j+1]]
}

// pathsOf returns the indices of the paths through node i, ascending.
//
//lint:hotpath
func (ds *Dataset) pathsOf(i int) []int32 {
	return ds.nodePaths[ds.nodeStart[i]:ds.nodeStart[i+1]]
}

// NumNodes returns the number of distinct ASes.
func (ds *Dataset) NumNodes() int { return len(ds.nodes) }

// NumPaths returns the number of observations.
func (ds *Dataset) NumPaths() int { return len(ds.positive) }

// Nodes returns the ASes in index order. Callers must not modify it.
func (ds *Dataset) Nodes() []bgp.ASN { return ds.nodes }

// NodeIndex returns the internal index of asn.
func (ds *Dataset) NodeIndex(asn bgp.ASN) (int, bool) {
	i, ok := ds.index[asn]
	return i, ok
}

// PositiveShare returns the fraction of observations labeled positive —
// 18% in the paper's RFD data, ~90% for ROV.
func (ds *Dataset) PositiveShare() float64 {
	if len(ds.positive) == 0 {
		return 0
	}
	n := 0
	for _, pos := range ds.positive {
		if pos {
			n++
		}
	}
	return float64(n) / float64(len(ds.positive))
}

// PathsOf returns, for each observation containing asn, whether it was
// positive. Used by diagnostics and the heuristics comparison.
func (ds *Dataset) PathsOf(asn bgp.ASN) (positive, negative int) {
	i, ok := ds.index[asn]
	if !ok {
		return 0, 0
	}
	for _, j := range ds.pathsOf(i) {
		if ds.positive[j] {
			positive++
		} else {
			negative++
		}
	}
	return positive, negative
}

// PositivePaths returns the node-index slices of all positive observations
// (shared storage — do not modify). The pinpointing pass iterates these.
func (ds *Dataset) PositivePaths() [][]int32 {
	var out [][]int32
	for j, pos := range ds.positive {
		if pos {
			out = append(out, ds.pathNodesOf(j))
		}
	}
	return out
}
