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

// PathNodes returns the node indices of observation j, in path order.
func (ds *Dataset) PathNodes(j int) []int { return ds.paths[j].nodes }

// PathPositive reports whether observation j was labeled positive.
func (ds *Dataset) PathPositive(j int) bool { return ds.paths[j].positive }

// PathWeight returns observation j's likelihood weight (defaults applied).
func (ds *Dataset) PathWeight(j int) float64 { return ds.paths[j].weight }

// NodePathIndices returns the indices of the observations containing
// node i.
func (ds *Dataset) NodePathIndices(i int) []int { return ds.nodePaths[i] }
