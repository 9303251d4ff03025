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

// pathRec is the internal, index-compressed form of an observation.
type pathRec struct {
	nodes    []int
	positive bool
	weight   float64
}

// Dataset is the compiled tomography input: the set of observations and the
// node (AS) universe they span.
type Dataset struct {
	nodes []bgp.ASN
	index map[bgp.ASN]int
	paths []pathRec
	// nodePaths[i] lists the indices of paths containing node i.
	nodePaths [][]int
}

// NewDataset compiles observations. Empty paths are rejected; an AS
// appearing twice on one (cleaned) path is an error because the likelihood
// assumes one Bernoulli choice per AS per path.
func NewDataset(obs []PathObs) (*Dataset, error) {
	ds := &Dataset{index: make(map[bgp.ASN]int)}
	for k, o := range obs {
		if len(o.ASNs) == 0 {
			return nil, fmt.Errorf("core: observation %d has an empty path", k)
		}
		w := o.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, fmt.Errorf("core: observation %d has negative weight", k)
		}
		rec := pathRec{positive: o.Positive, weight: w, nodes: make([]int, 0, len(o.ASNs))}
		seen := make(map[bgp.ASN]bool, len(o.ASNs))
		for _, a := range o.ASNs {
			if seen[a] {
				return nil, fmt.Errorf("core: observation %d repeats %v (clean the path first)", k, a)
			}
			seen[a] = true
			i, ok := ds.index[a]
			if !ok {
				i = len(ds.nodes)
				ds.index[a] = i
				ds.nodes = append(ds.nodes, a)
			}
			rec.nodes = append(rec.nodes, i)
		}
		ds.paths = append(ds.paths, rec)
	}
	ds.nodePaths = make([][]int, len(ds.nodes))
	for j, p := range ds.paths {
		for _, i := range p.nodes {
			ds.nodePaths[i] = append(ds.nodePaths[i], j)
		}
	}
	return ds, nil
}

// NumNodes returns the number of distinct ASes.
func (ds *Dataset) NumNodes() int { return len(ds.nodes) }

// NumPaths returns the number of observations.
func (ds *Dataset) NumPaths() int { return len(ds.paths) }

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
	if len(ds.paths) == 0 {
		return 0
	}
	n := 0
	for _, p := range ds.paths {
		if p.positive {
			n++
		}
	}
	return float64(n) / float64(len(ds.paths))
}

// PathsOf returns, for each observation containing asn, whether it was
// positive. Used by diagnostics and the heuristics comparison.
func (ds *Dataset) PathsOf(asn bgp.ASN) (positive, negative int) {
	i, ok := ds.index[asn]
	if !ok {
		return 0, 0
	}
	for _, j := range ds.nodePaths[i] {
		if ds.paths[j].positive {
			positive++
		} else {
			negative++
		}
	}
	return positive, negative
}

// PositivePaths returns the node-index slices of all positive observations
// (shared storage — do not modify). The pinpointing pass iterates these.
func (ds *Dataset) PositivePaths() [][]int {
	var out [][]int
	for _, p := range ds.paths {
		if p.positive {
			out = append(out, p.nodes)
		}
	}
	return out
}
