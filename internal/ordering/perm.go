// Package ordering provides fill-reducing orderings for sparse symmetric
// graphs: quotient-graph minimum degree (with element absorption,
// supervariables and dense-row handling) and geometric nested dissection
// for mesh problems. It substitutes for the METIS package the paper uses
// (§4.3): what the experiments need is a realistic assembly-tree shape,
// which any good fill-reducing ordering provides.
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

// Method names an ordering algorithm.
type Method string

// MethodAuto is the one supported method: nested dissection when the
// graph carries coordinates, minimum degree otherwise. Callers that want
// one algorithm regardless call NestedDissection or MinimumDegree.
const MethodAuto Method = "auto"

// Order computes an elimination order for g with the given method.
func Order(g *sparse.Graph, m Method) (Perm, error) {
	if m != MethodAuto {
		return nil, fmt.Errorf("ordering: unknown method %q", m)
	}
	if g.Coords != nil {
		return NestedDissection(g), nil
	}
	return MinimumDegree(g), nil
}
