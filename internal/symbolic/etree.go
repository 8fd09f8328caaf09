// Package symbolic performs the symbolic analysis of the multifrontal
// method: elimination tree, postordering, factor column counts and relaxed
// supernode amalgamation. Its output — an assembly tree with per-front
// sizes — is exactly what MUMPS's analysis phase hands to the factorization
// (paper §4.1), and what the mapping and solver substrates consume.
package symbolic

import "repro/internal/sparse"

// Etree computes the elimination tree of the (symmetric) graph g in
// natural order, using Liu's algorithm with path compression. parent[v] is
// the etree parent of v, or -1 for roots. Only edges (u, v) with u < v
// matter; g supplies both directions.
func Etree(g *sparse.Graph) []int32 {
	n := g.N
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	for v := 0; v < n; v++ {
		for _, u := range g.AdjOf(v) {
			if u >= int32(v) {
				continue
			}
			// Walk from u to the root of its current subtree, compressing
			// the ancestor path onto v.
			j := u
			for ancestor[j] != -1 && ancestor[j] != int32(v) {
				nextJ := ancestor[j]
				ancestor[j] = int32(v)
				j = nextJ
			}
			if ancestor[j] == -1 {
				ancestor[j] = int32(v)
				parent[j] = int32(v)
			}
		}
	}
	return parent
}

// Children builds child lists from a parent vector; roots are collected
// separately. Children appear in increasing vertex order.
func Children(parent []int32) (children [][]int32, roots []int32) {
	n := len(parent)
	counts := make([]int32, n)
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			counts[parent[v]]++
		}
	}
	children = make([][]int32, n)
	for v := 0; v < n; v++ {
		if counts[v] > 0 {
			children[v] = make([]int32, 0, counts[v])
		}
	}
	for v := 0; v < n; v++ {
		if p := parent[v]; p >= 0 {
			children[p] = append(children[p], int32(v))
		} else {
			roots = append(roots, int32(v))
		}
	}
	return children, roots
}

// Postorder returns a postorder permutation of the forest: post[k] = v
// means v is the k-th vertex in postorder. Children are visited in
// increasing order, keeping the result deterministic.
func Postorder(parent []int32) []int32 {
	n := len(parent)
	children, roots := Children(parent)
	post := make([]int32, 0, n)
	// Iterative DFS with explicit child cursors.
	stack := make([]int32, 0, 64)
	cursor := make([]int32, n)
	for _, r := range roots {
		stack = append(stack, r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if int(cursor[v]) < len(children[v]) {
				c := children[v][cursor[v]]
				cursor[v]++
				stack = append(stack, c)
				continue
			}
			post = append(post, v)
			stack = stack[:len(stack)-1]
		}
	}
	return post
}

// RelabelParent maps a parent vector through a postorder: the returned
// vector newParent satisfies newParent[inv[v]] = inv[parent[v]] (with -1
// preserved). Postordering preserves the etree, so no recomputation is
// needed.
func RelabelParent(parent, post []int32) []int32 {
	n := len(parent)
	inv := make([]int32, n)
	for k, v := range post {
		inv[v] = int32(k)
	}
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		if parent[v] < 0 {
			out[inv[v]] = -1
		} else {
			out[inv[v]] = inv[parent[v]]
		}
	}
	return out
}

// ColCounts computes the number of nonzeros of each factor column
// (diagonal included) for the Cholesky factor of the graph in natural
// order, where parent is the graph's elimination tree (postordered or
// not). It is the skeleton algorithm of Gilbert, Ng and Peyton as in
// CSparse's cs_counts: an edge (i, j), j < i, adds a row to column j only
// when j is a leaf of row i's subtree — its first descendant comes after
// every first descendant row i has seen — and the rows two consecutive
// leaves share are taken back at their least common ancestor, found by
// path-compressed union-find. Summing the per-column differences up the
// tree gives the counts in O(|A|·α(n)), without visiting the factor.
func ColCounts(g *sparse.Graph, parent []int32) []int32 {
	n := g.N
	post := Postorder(parent)
	count := make([]int32, n)
	first := make([]int32, n)    // first[j]: postorder rank of j's first descendant
	maxFirst := make([]int32, n) // largest first[j] over the leaves seen in row i's subtree
	prevLeaf := make([]int32, n) // the last such leaf
	ancestor := make([]int32, n) // union-find over the subtrees already passed
	for i := range first {
		first[i], maxFirst[i], prevLeaf[i], ancestor[i] = -1, -1, -1, int32(i)
	}
	for k, j := range post {
		if first[j] < 0 {
			count[j] = 1 // a leaf of the tree: its own diagonal
		}
		for ; j >= 0 && first[j] < 0; j = parent[j] {
			first[j] = int32(k)
		}
	}
	for _, j := range post {
		if parent[j] >= 0 {
			count[parent[j]]-- // j's rows pass to its parent, its diagonal does not
		}
		for _, i := range g.AdjOf(int(j)) {
			if i <= j || first[j] <= maxFirst[i] {
				continue
			}
			maxFirst[i] = first[j]
			prev := prevLeaf[i]
			prevLeaf[i] = j
			count[j]++
			if prev < 0 {
				continue // first leaf of row i's subtree
			}
			q := prev
			for q != ancestor[q] {
				q = ancestor[q]
			}
			for s := prev; s != q; {
				up := ancestor[s]
				ancestor[s] = q
				s = up
			}
			count[q]--
		}
		if parent[j] >= 0 {
			ancestor[j] = parent[j]
		}
	}
	for _, j := range post {
		if parent[j] >= 0 {
			count[parent[j]] += count[j]
		}
	}
	return count
}

// FactorNNZ sums the column counts (total factor entries of one triangle).
func FactorNNZ(counts []int32) int64 {
	var s int64
	for _, c := range counts {
		s += int64(c)
	}
	return s
}
