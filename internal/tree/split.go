package tree

import "math"

// SplitParams tunes node splitting.
type SplitParams struct {
	// MaxPivFrac is the target ratio Npiv/Nfront for split pieces: a
	// node is split so each piece eliminates at most MaxPivFrac of its
	// front.
	MaxPivFrac float64
	// MinPiv is the smallest pivot block worth a separate node.
	MinPiv int32
	// MinFront: nodes with smaller fronts are never split.
	MinFront int32
}

// DefaultSplit returns the splitting used by the experiments.
func DefaultSplit() SplitParams {
	return SplitParams{MaxPivFrac: 0.125, MinPiv: 32, MinFront: 96}
}

// Split applies MUMPS-style node splitting: an upper node with a thick
// pivot block (Npiv large relative to Nfront) is replaced by a chain of
// nodes each eliminating a thin block. The master of a parallel (future
// Type 2) node then holds only a thin row panel, the Schur complement —
// distributed dynamically over slaves — dominates the node's memory, and
// each chain piece is a separate dynamic decision, as in MUMPS.
//
// The returned tree is freshly numbered in topological order; the input
// is not modified.
func Split(t *Tree, prm SplitParams) *Tree {
	if prm.MaxPivFrac <= 0 || prm.MaxPivFrac >= 1 {
		prm = DefaultSplit()
	}
	// Every chain's pieces, bottom first, so that the output is sized once.
	var sizes []int32
	for i := range t.Nodes {
		sizes = splitSizes(sizes, t.Nodes[i].Npiv, t.Nodes[i].Nfront, prm)
	}
	out := &Tree{Sym: t.Sym, N: t.N, Nodes: make([]Node, 0, len(sizes))}
	bottom := make([]int32, len(t.Nodes))
	top := make([]int32, len(t.Nodes))

	emit := func(npiv, nfront int32) int32 {
		id := int32(len(out.Nodes))
		out.Nodes = append(out.Nodes, Node{
			ID: id, Parent: -1, Npiv: npiv, Nfront: nfront, Subtree: -1,
			Cost: FrontFlops(nfront, npiv, t.Sym),
		})
		out.TotalCost += out.Nodes[id].Cost
		return id
	}

	for i := range t.Nodes {
		n := &t.Nodes[i]
		// Emit the chain bottom-up: the pieces that sum to its pivots.
		var prev int32 = -1
		front := n.Nfront
		for k, piv := 0, int32(0); k == 0 || piv < n.Npiv; k++ {
			np := sizes[0]
			sizes, piv = sizes[1:], piv+np
			id := emit(np, front)
			front -= np
			if k == 0 {
				bottom[i] = id
			} else {
				out.Nodes[prev].Parent = id
				out.Nodes[id].Children = []int32{prev}
			}
			prev = id
		}
		top[i] = prev
		// Attach the original children to the chain bottom.
		b := bottom[i]
		for _, c := range n.Children {
			out.Nodes[top[c]].Parent = b
			out.Nodes[b].Children = append(out.Nodes[b].Children, top[c])
		}
	}
	for i := range out.Nodes {
		nd := &out.Nodes[i]
		nd.SubtreeCost += nd.Cost
		if nd.Parent >= 0 {
			out.Nodes[nd.Parent].SubtreeCost += nd.SubtreeCost
		} else {
			out.Roots = append(out.Roots, nd.ID)
		}
	}
	return out
}

// splitSizes appends the pivot-block sizes of the chain to sizes, bottom
// first.
func splitSizes(sizes []int32, npiv, nfront int32, prm SplitParams) []int32 {
	target := int32(math.Round(prm.MaxPivFrac * float64(nfront)))
	if target < prm.MinPiv {
		target = prm.MinPiv
	}
	if nfront < prm.MinFront || npiv <= 2*target {
		return append(sizes, npiv)
	}
	remain := npiv
	front := nfront
	for remain > 0 {
		np := int32(math.Round(prm.MaxPivFrac * float64(front)))
		if np < prm.MinPiv {
			np = prm.MinPiv
		}
		if remain-np < prm.MinPiv {
			np = remain // fold the tail into the last piece
		}
		sizes = append(sizes, np)
		remain -= np
		front -= np
	}
	return sizes
}
