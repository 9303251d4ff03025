package core

// ProdOf returns the log-product core a model state embeds (both the RFD
// and the churn state do), for the external invariant tests.
func ProdOf(st ModelState) *LogProd {
	return st.(interface{ logProd() *LogProd }).logProd()
}

func (c *LogProd) logProd() *LogProd { return c }

// NodeLogs returns the per-node log(1-p_i) cache.
func (c *LogProd) NodeLogs() []float64 { return c.lq }

// TermCache returns the per-path term cache and whether it is valid.
func (c *LogProd) TermCache() ([]float64, bool) { return c.term, c.termsOK }
