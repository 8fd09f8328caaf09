// Package ordering provides fill-reducing orderings for sparse symmetric
// graphs: quotient-graph minimum degree (with element absorption,
// supervariables and dense-row handling), geometric nested dissection for
// mesh problems, and reverse Cuthill-McKee. It substitutes for the METIS
// package the paper uses (§4.3): what the experiments need is a realistic
// assembly-tree shape, which any good fill-reducing ordering provides.
package ordering

import (
	"fmt"

	"repro/internal/sparse"
)

// Perm is an elimination order: Perm[k] = v means vertex v is eliminated
// at step k. (This is the "order" convention; Inverse gives positions.)
type Perm []int32

// Identity returns the natural order on n vertices.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Inverse returns inv with inv[v] = position of v in the order.
func (p Perm) Inverse() []int32 {
	inv := make([]int32, len(p))
	for k, v := range p {
		inv[v] = int32(k)
	}
	return inv
}

// Validate checks that p is a permutation of [0, n).
func (p Perm) Validate(n int) error {
	if len(p) != n {
		return fmt.Errorf("ordering: permutation length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("ordering: value %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("ordering: duplicate value %d", v)
		}
		seen[v] = true
	}
	return nil
}

// PermuteGraph relabels g by the order p: vertex v becomes inv[v]. The
// permuted graph is what symbolic analysis consumes (elimination proceeds
// in natural order on the permuted graph). New labels are scattered in
// ascending order into their neighbours' lists — g is symmetric — so the
// lists come out sorted.
func PermuteGraph(g *sparse.Graph, p Perm) *sparse.Graph {
	inv := p.Inverse()
	ptr := make([]int32, g.N+1)
	for newV, oldV := range p {
		ptr[newV+1] = ptr[newV] + int32(g.Degree(int(oldV)))
	}
	next := append([]int32(nil), ptr[:g.N]...)
	adj := make([]int32, len(g.Adj))
	for newV, oldV := range p {
		for _, u := range g.AdjOf(int(oldV)) {
			adj[next[inv[u]]] = int32(newV)
			next[inv[u]]++
		}
	}
	var coords [][3]float64
	if g.Coords != nil {
		coords = make([][3]float64, g.N)
		for newV := 0; newV < g.N; newV++ {
			coords[newV] = g.Coords[p[newV]]
		}
	}
	return &sparse.Graph{N: g.N, Ptr: ptr, Adj: adj, Coords: coords}
}

// Method names an ordering algorithm.
type Method string

// Supported ordering methods.
const (
	MethodAuto    Method = "auto" // ND when coordinates exist, else MD
	MethodMinDeg  Method = "md"
	MethodND      Method = "nd"
	MethodNatural Method = "natural"
)

// Order computes an elimination order for g with the given method.
func Order(g *sparse.Graph, m Method) (Perm, error) {
	switch m {
	case MethodAuto:
		if g.Coords != nil {
			return NestedDissection(g), nil
		}
		return MinimumDegree(g), nil
	case MethodMinDeg:
		return MinimumDegree(g), nil
	case MethodND:
		return NestedDissection(g), nil
	case MethodNatural:
		return Identity(g.N), nil
	}
	return nil, fmt.Errorf("ordering: unknown method %q", m)
}
