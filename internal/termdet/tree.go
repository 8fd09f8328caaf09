package termdet

import "repro/internal/core"

// Control frames only travel topology edges: on a sparse TCP mesh a
// rank shares no socket with its non-neighbors. Both protocols
// therefore route along spanning trees of the topology rooted at rank
// 0. DS engages every rank under its breadth-first parent, and both
// protocols broadcast the termination announcement down that tree;
// Safra's probe visits the ranks in depth-first preorder. On the
// complete graph the breadth-first tree is the star under rank 0 and
// the depth-first preorder is the ring 0 → 1 → … → n-1, so both
// protocols behave there exactly as on an unrestricted network. Every
// registered topology is connected.

// place is one rank's position in a spanning tree rooted at rank 0.
type place struct {
	parent int   // -1 at the root
	kids   []int // children in visit order
	// after is the rank the depth-first preorder visits once this
	// rank's subtree is done; 0 when the subtree ends the traversal.
	after int
}

// bfsPlace returns rank's place in the breadth-first spanning tree,
// neighbors taken in ascending order.
func bfsPlace(topo *core.Topology, n, rank int) place {
	if topo.IsFull() {
		if rank != 0 {
			return place{parent: 0}
		}
		kids := make([]int, 0, n-1)
		for r := 1; r < n; r++ {
			kids = append(kids, r)
		}
		return place{parent: -1, kids: kids}
	}
	parent := make([]int, n)
	for r := range parent {
		parent[r] = -2 // unvisited
	}
	parent[0] = -1
	pl := place{}
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		r := queue[0]
		for _, p := range topo.Neighbors(r) {
			if parent[p] == -2 {
				parent[p] = r
				queue = append(queue, p)
				if r == rank {
					pl.kids = append(pl.kids, p)
				}
			}
		}
	}
	pl.parent = parent[rank]
	return pl
}

// dfsPlace returns rank's place in the depth-first spanning tree,
// neighbors taken in ascending order.
func dfsPlace(topo *core.Topology, n, rank int) place {
	if topo.IsFull() {
		pl := place{parent: rank - 1}
		if rank+1 < n {
			pl.kids = []int{rank + 1}
		}
		return pl
	}
	var order []int
	parent, end := make([]int, n), make([]int, n)
	seen := make([]bool, n)
	var visit func(r, from int)
	visit = func(r, from int) {
		seen[r], parent[r] = true, from
		order = append(order, r)
		for _, p := range topo.Neighbors(r) {
			if !seen[p] {
				visit(p, r)
			}
		}
		end[r] = len(order)
	}
	visit(0, -1)
	pl := place{parent: parent[rank]}
	for _, r := range order {
		if parent[r] == rank {
			pl.kids = append(pl.kids, r)
		}
	}
	if end[rank] < n {
		pl.after = order[end[rank]]
	}
	return pl
}

// announce sends the termination announcement to the rank's children
// in the breadth-first tree: rank 0 starts it at detection, every other
// rank forwards it on receipt.
func announce(ctx Context, kids []int) {
	for _, k := range kids {
		ctx.SendCtrl(k, Ctrl{Kind: CtrlTerm})
	}
}
