package symbolic

import (
	"fmt"

	"repro/internal/ordering"
	"repro/internal/sparse"
)

// Analysis is the result of the symbolic phase: everything the mapping and
// factorization phases need, and nothing numerical.
type Analysis struct {
	N int
	// Perm is the complete fill-reducing elimination order (fill ordering
	// composed with the etree postorder).
	Perm ordering.Perm
	// Parent is the elimination tree on postordered labels.
	Parent []int32
	// Counts are factor column counts on postordered labels.
	Counts []int32
	// Nodes is the amalgamated assembly tree in topological order.
	Nodes []SNode
	// Roots lists tree roots (usually one per connected component).
	Roots []int32
	// FactorEntries is nnz(L) (one triangle, diagonal included).
	FactorEntries int64
	// Sym records whether the problem is symmetric (halves costs).
	Sym bool
}

// Options configures the analysis.
type Options struct {
	Method ordering.Method
	Amalg  AmalgParams
}

// DefaultOptions returns the analysis configuration used by the
// experiments: automatic ordering choice and default amalgamation.
func DefaultOptions() Options {
	return Options{Method: ordering.MethodAuto, Amalg: DefaultAmalg()}
}

// Analyze runs the full symbolic pipeline on a pattern: adjacency graph,
// fill-reducing ordering, elimination tree, postorder, column counts and
// amalgamation.
func Analyze(p *sparse.Pattern, opt Options) (*Analysis, error) {
	if opt.Method == "" {
		opt.Method = ordering.MethodAuto
	}
	if opt.Amalg == (AmalgParams{}) {
		opt.Amalg = DefaultAmalg()
	}
	g := p.ToGraph()
	perm, err := ordering.Order(g, opt.Method)
	if err != nil {
		return nil, err
	}
	return AnalyzeGraph(g, perm, p.Kind == sparse.Sym, opt.Amalg)
}

// AnalyzeGraph runs the pipeline on a pre-built graph and ordering.
func AnalyzeGraph(g *sparse.Graph, perm ordering.Perm, sym bool, amalg AmalgParams) (*Analysis, error) {
	if err := perm.Validate(g.N); err != nil {
		return nil, fmt.Errorf("symbolic: invalid ordering: %w", err)
	}
	// Nothing below reads coordinates: permute an adjacency-only view so
	// they are not copied twice.
	gp := ordering.PermuteGraph(&sparse.Graph{N: g.N, Ptr: g.Ptr, Adj: g.Adj}, perm)
	parent := Etree(gp)
	post := Postorder(parent)
	// Compose the overall order and relabel everything to postorder.
	full := make(ordering.Perm, g.N)
	for k, v := range post {
		full[k] = perm[v]
	}
	gpp := ordering.PermuteGraph(gp, ordering.Perm(post))
	parentPost := RelabelParent(parent, post)
	counts := ColCounts(gpp, parentPost)
	nodes := Supernodes(parentPost, counts, amalg)
	var roots []int32
	for i := range nodes {
		if nodes[i].Parent < 0 {
			roots = append(roots, nodes[i].ID)
		}
	}
	return &Analysis{
		N:             g.N,
		Perm:          full,
		Parent:        parentPost,
		Counts:        counts,
		Nodes:         nodes,
		Roots:         roots,
		FactorEntries: FactorNNZ(counts),
		Sym:           sym,
	}, nil
}

// Validate checks the structural invariants of the analysis: the pivot
// ranges of the nodes partition [0, n), parent links are topological, and
// front sizes are consistent (Nfront >= Npiv, child Schur fits in parent).
func (a *Analysis) Validate() error {
	var piv int64
	for i := range a.Nodes {
		nd := &a.Nodes[i]
		piv += int64(nd.Npiv)
		if nd.Npiv <= 0 {
			return fmt.Errorf("symbolic: node %d has no pivots", nd.ID)
		}
		if nd.Nfront < nd.Npiv {
			return fmt.Errorf("symbolic: node %d front %d < npiv %d", nd.ID, nd.Nfront, nd.Npiv)
		}
		if nd.Parent >= 0 {
			if nd.Parent <= nd.ID || int(nd.Parent) >= len(a.Nodes) {
				return fmt.Errorf("symbolic: node %d has bad parent %d", nd.ID, nd.Parent)
			}
		}
		for _, c := range nd.Children {
			if a.Nodes[c].Parent != nd.ID {
				return fmt.Errorf("symbolic: child link mismatch at node %d", nd.ID)
			}
		}
	}
	if piv != int64(a.N) {
		return fmt.Errorf("symbolic: pivots %d != n %d", piv, a.N)
	}
	return nil
}
