package core

// Exported for the external invariant tests.
var (
	ClampProb = clampProb
	Log1mExp  = log1mExp
)

// State is one chain's likelihood state, as the samplers drive it.
type State = likState

// NewState compiles m's likelihood state over ds at p.
func NewState(ds *Dataset, p []float64, m Model) *State { return newLikState(ds, p, m) }

// LogQ returns the per-path log products.
func (st *likState) LogQ() []float64 { return st.logQ }

// NodeLogs returns the per-node log(1-p_i) cache.
func (st *likState) NodeLogs() []float64 { return st.lq }

// TermCache returns the per-path term cache and whether it is valid.
func (st *likState) TermCache() ([]float64, bool) { return st.term, st.termsOK }

// MoveTo moves the state to the logit-space position theta through the
// HMC passes — the leapfrog step of length zero that starts a chain — and
// returns the log-posterior gradient there.
func (st *likState) MoveTo(prior Prior, theta []float64) []float64 {
	n := len(theta)
	grad := make([]float64, n)
	st.stepNodes(prior, append([]float64(nil), theta...), make([]float64, n), grad, grad, 0, 0)
	st.stepPaths(grad)
	return grad
}

// PathNodes returns the node indices of observation j, in path order.
func (ds *Dataset) PathNodes(j int) []int32 { return ds.pathNodesOf(j) }

// PathPositive reports whether observation j was labeled positive.
func (ds *Dataset) PathPositive(j int) bool { return ds.positive[j] }

// PathWeight returns observation j's likelihood weight (defaults applied).
func (ds *Dataset) PathWeight(j int) float64 { return ds.weight[j] }

// NodePathIndices returns the indices of the observations containing
// node i, ascending.
func (ds *Dataset) NodePathIndices(i int) []int {
	var out []int
	for _, j := range ds.pathsOf(i) {
		out = append(out, int(j))
	}
	return out
}
