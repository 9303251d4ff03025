package stats

// Confusion counts binary-classification outcomes against ground truth. It
// is used to reproduce the paper's Table 4 precision/recall rows and the
// Table 3 divergence taxonomy.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one (predicted, actual) observation.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), or 1 when nothing was predicted positive
// (vacuous precision, matching the convention used when reporting "100%
// precision" on small ground-truth sets).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 1 when there are no actual positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}
