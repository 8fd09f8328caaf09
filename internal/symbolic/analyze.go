package symbolic

import (
	"fmt"
	"slices"

	"repro/internal/ordering"
	"repro/internal/reuse"
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

// Options configures Analyze.
type Options struct{ Amalg AmalgParams }

// DefaultOptions returns Analyze's configuration: default amalgamation.
func DefaultOptions() Options { return Options{Amalg: DefaultAmalg()} }

// Analyze runs the full symbolic pipeline on a pattern: adjacency graph,
// minimum-degree ordering, elimination tree, postorder, column counts and
// amalgamation. The program analyses through AnalyzeGraph; Analyze is kept
// only for benchmark/simscale.go and tests.
func Analyze(p *sparse.Pattern, opt Options) (*Analysis, error) {
	if opt.Amalg == (AmalgParams{}) {
		opt.Amalg = DefaultAmalg()
	}
	g := p.ToGraph()
	return AnalyzeGraph(g, ordering.MinimumDegree(g), p.Kind == sparse.Sym, opt.Amalg)
}

// AnalyzeGraph runs the pipeline on a pre-built graph and ordering.
func AnalyzeGraph(g *sparse.Graph, perm ordering.Perm, sym bool, amalg AmalgParams) (*Analysis, error) {
	n := g.N
	ar := arenas.Get()
	defer ar.release()
	// inv[v] is one past v's position: a 0 left means perm misses v.
	inv := ar.take(n)
	for k, v := range perm {
		if uint(v) < uint(n) && inv[v] == 0 {
			inv[v] = int32(k) + 1
		}
	}
	if len(perm) != n || slices.Contains(inv, 0) {
		return nil, fmt.Errorf("symbolic: invalid ordering: %w", perm.Validate(n))
	}
	for v := range inv {
		inv[v]--
	}
	parent := etree(ar, g, perm, inv, ar.take(n))
	post := postorder(ar, parent, ar.take(n))
	// Compose the overall order and relabel everything to postorder.
	full := make(ordering.Perm, n)
	for k, v := range post {
		full[k] = perm[v]
		inv[full[k]] = int32(k)
	}
	parentPost := relabelParent(ar, parent, post, make([]int32, n))
	// A postordered tree is its own postorder.
	for k := range post {
		post[k] = int32(k)
	}
	counts := colCounts(ar, g, full, inv, parentPost, post, make([]int32, n))
	ar.free(0) // inv, parent and post are spent
	nodes := supernodes(ar, parentPost, counts, amalg)
	var roots []int32
	for i := range nodes {
		if nodes[i].Parent < 0 {
			roots = append(roots, nodes[i].ID)
		}
	}
	return &Analysis{
		N:             n,
		Perm:          full,
		Parent:        parentPost,
		Counts:        counts,
		Nodes:         nodes,
		Roots:         roots,
		FactorEntries: FactorNNZ(counts),
		Sym:           sym,
	}, nil
}

// arena hands out an analysis's int32 scratch arrays, zeroed, as a stack
// (a step frees its arrays: defer ar.free(ar.used)). Steps take them in a
// fixed order, so a kept arena serves the next analysis as it is.
type arena struct {
	bufs [][]int32
	used int
}

var arenas = make(reuse.Free[arena], 4) // a Lab analyses one problem at a time; room for a few Labs

func (ar *arena) take(n int) []int32 {
	if ar.used == len(ar.bufs) {
		ar.bufs = append(ar.bufs, nil)
	}
	if cap(ar.bufs[ar.used]) < n {
		ar.bufs[ar.used] = make([]int32, n)
	}
	b := ar.bufs[ar.used][:n]
	ar.used++
	clear(b)
	return b
}

func (ar *arena) free(used int) { ar.used = used }

// release returns the arena to arenas.
func (ar *arena) release() {
	ar.used = 0
	arenas.Put(ar)
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
