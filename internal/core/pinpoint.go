package core

import (
	"because/internal/bgp"
)

// PinpointInconsistent implements step 2 of § 5.1: every positive path must
// contain at least one AS flagged Category 4/5; for positive paths where
// none is, the posterior samples identify the AS most likely to be causing
// the property — the AS whose p_i is extremal on the path. If one AS is the
// most likely cause in more than threshold (Eq. 8: 0.8) of the posterior
// samples, it is upgraded to Category 4.
//
// The summaries slice is modified in place (Category and Pinpointed); the
// upgraded ASNs are returned.
func PinpointInconsistent(ds *Dataset, chains []*Chain, summaries []NodeSummary, threshold float64) []bgp.ASN {
	if threshold <= 0 || threshold > 1 {
		threshold = 0.8
	}
	byIndex := make(map[int32]*NodeSummary, len(summaries))
	for k := range summaries {
		if i, ok := ds.NodeIndex(summaries[k].ASN); ok {
			byIndex[int32(i)] = &summaries[k]
		}
	}

	var upgraded []bgp.ASN
	seen := make(map[bgp.ASN]bool)
	for _, path := range ds.PositivePaths() {
		// Does the path already contain a flagged AS?
		flagged := false
		for _, i := range path {
			if s := byIndex[i]; s != nil && s.Category.Positive() {
				flagged = true
				break
			}
		}
		if flagged {
			continue
		}
		// Vote across all pooled samples: which AS on the path has the
		// highest damping proportion in each posterior draw?
		votes := make(map[int32]int, len(path))
		total := 0
		for _, c := range chains {
			for _, sample := range c.Samples {
				best, bestVal := int32(-1), -1.0
				for _, i := range path {
					if sample[i] > bestVal {
						best, bestVal = i, sample[i]
					}
				}
				votes[best]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		// Walk the candidates in path order, not map order: with several
		// ASes over threshold the upgraded slice (and Result.Pinpointed)
		// must not depend on randomised map iteration.
		for _, i := range path {
			v, ok := votes[i]
			if !ok {
				continue
			}
			delete(votes, i) // a path may repeat an AS index; count it once
			if float64(v)/float64(total) > threshold {
				s := byIndex[i]
				if s == nil {
					continue
				}
				if !s.Category.Positive() {
					s.Category = CatLikely
					s.Pinpointed = true
					if !seen[s.ASN] {
						seen[s.ASN] = true
						upgraded = append(upgraded, s.ASN)
					}
				}
			}
		}
	}
	return upgraded
}
