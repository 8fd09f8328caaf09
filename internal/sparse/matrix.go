// Package sparse provides sparse matrix patterns, generators for the
// paper's test problems, and the adjacency structures consumed by the
// ordering and symbolic-analysis substrates.
//
// Only the pattern (structure) of matrices matters for this study: the
// load-exchange experiments depend on the shape of the multifrontal
// assembly tree and on per-front sizes, never on numerical values, so no
// numerical values are stored.
package sparse

import (
	"fmt"
	"math"
)

// Kind distinguishes symmetric from unsymmetric problems (the "Type"
// column of Tables 1-2). For unsymmetric matrices the analysis works on
// the pattern of A+Aᵀ, as MUMPS does.
type Kind uint8

const (
	// Sym marks a matrix with symmetric pattern stored as lower triangle.
	Sym Kind = iota
	// Unsym marks a general pattern.
	Unsym
)

func (k Kind) String() string {
	if k == Sym {
		return "SYM"
	}
	return "UNS"
}

// Pattern is a sparse matrix pattern in compressed sparse column form.
// For Kind == Sym only entries with row >= col are stored and NNZ counts
// the stored lower triangle plus the implicit upper mirror minus the
// diagonal once, matching how collections usually report symmetric nnz.
type Pattern struct {
	N      int
	Kind   Kind
	ColPtr []int32
	RowIdx []int32
}

// Stored returns the number of explicitly stored entries.
func (p *Pattern) Stored() int { return len(p.RowIdx) }

// NNZ returns the logical number of nonzeros (mirroring the lower triangle
// for symmetric patterns, diagonal counted once).
func (p *Pattern) NNZ() int {
	if p.Kind == Unsym {
		return p.Stored()
	}
	diag := 0
	for j := 0; j < p.N; j++ {
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			if p.RowIdx[q] == int32(j) {
				diag++
			}
		}
	}
	return 2*p.Stored() - diag
}

// Validate checks structural invariants: monotone ColPtr, in-range sorted
// unique row indices, and (for Sym) lower-triangular storage.
func (p *Pattern) Validate() error {
	if p.N < 0 {
		return fmt.Errorf("sparse: negative dimension %d", p.N)
	}
	if len(p.ColPtr) != p.N+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(p.ColPtr), p.N+1)
	}
	if p.ColPtr[0] != 0 || int(p.ColPtr[p.N]) != len(p.RowIdx) {
		return fmt.Errorf("sparse: ColPtr endpoints invalid")
	}
	for j := 0; j < p.N; j++ {
		if p.ColPtr[j] > p.ColPtr[j+1] {
			return fmt.Errorf("sparse: ColPtr not monotone at column %d", j)
		}
		prev := int32(-1)
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			r := p.RowIdx[q]
			if r < 0 || r >= int32(p.N) {
				return fmt.Errorf("sparse: row %d out of range in column %d", r, j)
			}
			if r <= prev {
				return fmt.Errorf("sparse: rows not sorted/unique in column %d", j)
			}
			if p.Kind == Sym && r < int32(j) {
				return fmt.Errorf("sparse: upper entry (%d,%d) in symmetric pattern", r, j)
			}
			prev = r
		}
	}
	return nil
}

// Builder accumulates coordinate-form entries and produces a Pattern.
// Duplicate entries are merged; for symmetric kinds upper-triangle entries
// are mirrored to the lower triangle.
type Builder struct {
	n    int
	kind Kind
	rows []int32
	cols []int32
}

// NewBuilder returns a builder for an n×n pattern of the given kind.
func NewBuilder(n int, kind Kind) *Builder {
	return &Builder{n: n, kind: kind}
}

// Add records entry (i, j). Out-of-range entries panic: generators are
// internal and must be correct.
func (b *Builder) Add(i, j int) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for n=%d", i, j, b.n))
	}
	if b.kind == Sym && i < j {
		i, j = j, i
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
}

// AddSym records both (i,j) and (j,i) for unsymmetric kinds; for symmetric
// kinds it is equivalent to Add.
func (b *Builder) AddSym(i, j int) {
	b.Add(i, j)
	if b.kind == Unsym && i != j {
		b.Add(j, i)
	}
}

// Build sorts, deduplicates and compresses the entries in O(n + entries):
// a stable counting sort by row, then a transpose, which is a stable
// counting sort by column that leaves every column's rows ascending.
func (b *Builder) Build() *Pattern {
	if len(b.rows) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %d entries overflow the int32 indices of a Pattern", len(b.rows)))
	}
	rowPtr := make([]int32, b.n+1)
	for _, r := range b.rows {
		rowPtr[r+1]++
	}
	next := prefixSum(rowPtr)
	byRow := make([]int32, len(b.cols))
	for k, r := range b.rows {
		byRow[next[r]] = b.cols[k]
		next[r]++
	}
	p := &Pattern{N: b.n, Kind: b.kind}
	p.ColPtr, p.RowIdx = transpose(rowPtr, byRow)
	p.RowIdx = uniq(p.ColPtr, p.RowIdx)
	return p
}

// prefixSum turns counts stored at ptr[k+1] into list starts, in place,
// and returns a copy of the starts to advance while the lists are filled.
func prefixSum(ptr []int32) (next []int32) {
	for k := 1; k < len(ptr); k++ {
		ptr[k] += ptr[k-1]
	}
	return append([]int32(nil), ptr[:len(ptr)-1]...)
}

// transpose returns, for the lists idx[ptr[k]:ptr[k+1]] over [0, n), the
// lists of their transpose: list i holds every k whose list contains i,
// ascending, once per occurrence.
func transpose(ptr, idx []int32) (tptr, tidx []int32) {
	tptr = make([]int32, len(ptr))
	for _, i := range idx {
		tptr[i+1]++
	}
	next := prefixSum(tptr)
	tidx = make([]int32, len(idx))
	for k := 0; k+1 < len(ptr); k++ {
		for _, i := range idx[ptr[k]:ptr[k+1]] {
			tidx[next[i]] = int32(k)
			next[i]++
		}
	}
	return tptr, tidx
}

// uniq drops adjacent duplicates from every list idx[ptr[k]:ptr[k+1]] in
// place, rewrites ptr to match and returns the shortened idx.
func uniq(ptr, idx []int32) []int32 {
	w, lo := int32(0), int32(0)
	for k := 0; k+1 < len(ptr); k++ {
		hi := ptr[k+1]
		ptr[k] = w
		last := int32(-1)
		for _, i := range idx[lo:hi] {
			if i != last {
				idx[w] = i
				w++
				last = i
			}
		}
		lo = hi
	}
	ptr[len(ptr)-1] = w
	return idx[:w]
}

// Graph is the undirected adjacency structure of A+Aᵀ without the
// diagonal: the input consumed by orderings and by the elimination tree.
type Graph struct {
	N   int
	Ptr []int32
	Adj []int32
	// Coords optionally carries vertex coordinates (filled by mesh
	// generators) enabling geometric nested dissection.
	Coords [][3]float64
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.Ptr[v+1] - g.Ptr[v]) }

// AdjOf returns the adjacency list of v (shared storage; do not modify).
func (g *Graph) AdjOf(v int) []int32 { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int { return len(g.Adj) / 2 }

// ToGraph builds the adjacency graph of pattern+patternᵀ, dropping the
// diagonal and merging duplicates. Vertices are scattered in ascending
// order into their neighbours' lists — the graph is symmetric — so every
// list comes out sorted with duplicates adjacent, in O(n + stored).
func (p *Pattern) ToGraph() *Graph {
	rowPtr, colIdx := transpose(p.ColPtr, p.RowIdx)
	ptr := make([]int32, p.N+1)
	for j := 0; j < p.N; j++ {
		for _, i := range p.RowIdx[p.ColPtr[j]:p.ColPtr[j+1]] {
			if int(i) != j {
				ptr[i+1]++
				ptr[j+1]++
			}
		}
	}
	next := prefixSum(ptr)
	adj := make([]int32, ptr[p.N])
	for v := 0; v < p.N; v++ {
		for _, lst := range [2][]int32{p.RowIdx[p.ColPtr[v]:p.ColPtr[v+1]], colIdx[rowPtr[v]:rowPtr[v+1]]} {
			for _, u := range lst {
				if int(u) != v {
					adj[next[u]] = int32(v)
					next[u]++
				}
			}
		}
	}
	// Unsymmetric patterns may contain both (i,j) and (j,i).
	return &Graph{N: p.N, Ptr: ptr, Adj: uniq(ptr, adj)}
}
