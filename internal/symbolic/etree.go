// Package symbolic performs the symbolic analysis of the multifrontal
// method: elimination tree, postordering, factor column counts and relaxed
// supernode amalgamation. Its output — an assembly tree with per-front
// sizes — is exactly what MUMPS's analysis phase hands to the factorization
// (paper §4.1), and what the mapping and solver substrates consume.
package symbolic

import (
	"repro/internal/ordering"
	"repro/internal/sparse"
)

// Etree computes the elimination tree of the (symmetric) graph g in
// natural order, using Liu's algorithm with path compression. parent[v] is
// the etree parent of v, or -1 for roots. Only edges (u, v) with u < v
// matter; g supplies both directions.
func Etree(g *sparse.Graph) []int32 {
	id := ordering.Identity(g.N)
	return etree(new(arena), g, id, id, make([]int32, g.N))
}

// etree writes into parent, and returns, the Etree of g permuted by
// order, without permuting g: step k eliminates order[k], and its
// neighbour u comes earlier when inv[u] < k. The tree is on the permuted
// labels.
func etree(ar *arena, g *sparse.Graph, order ordering.Perm, inv, parent []int32) []int32 {
	defer ar.free(ar.used)
	ancestor := ar.take(g.N)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	for k, v := range order {
		k := int32(k)
		for _, u := range g.AdjOf(int(v)) {
			j := inv[u]
			if j >= k {
				continue
			}
			// Walk from j to the root of its current subtree, compressing
			// the ancestor path onto k.
			for ancestor[j] != -1 && ancestor[j] != k {
				nextJ := ancestor[j]
				ancestor[j] = k
				j = nextJ
			}
			if ancestor[j] == -1 {
				ancestor[j] = k
				parent[j] = k
			}
		}
	}
	return parent
}

// Postorder returns a postorder permutation of the forest: post[k] = v
// means v is the k-th vertex in postorder. Roots and children are visited
// in increasing order, keeping the result deterministic.
func Postorder(parent []int32) []int32 {
	return postorder(new(arena), parent, make([]int32, len(parent)))
}

// postorder writes Postorder(parent) into post and returns it.
func postorder(ar *arena, parent, post []int32) []int32 {
	defer ar.free(ar.used)
	n := len(parent)
	// Child lists as in CSparse's cs_post: head[v] is v's first unvisited
	// child and next[c] the sibling after c. Linking in decreasing order
	// leaves every list ascending.
	head, next, stack := ar.take(n), ar.take(n), ar.take(n)[:0]
	for v := range head {
		head[v] = -1
	}
	for v := n - 1; v >= 0; v-- {
		if p := parent[v]; p >= 0 {
			next[v] = head[p]
			head[p] = int32(v)
		}
	}
	post = post[:0]
	for r := range parent {
		if parent[r] >= 0 {
			continue
		}
		stack = append(stack, int32(r))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if c := head[v]; c >= 0 {
				head[v] = next[c]
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
	return relabelParent(new(arena), parent, post, make([]int32, len(parent)))
}

// relabelParent writes RelabelParent(parent, post) into out, and returns it.
func relabelParent(ar *arena, parent, post, out []int32) []int32 {
	defer ar.free(ar.used)
	inv := ar.take(len(parent))
	for k, v := range post {
		inv[v] = int32(k)
	}
	for v, p := range parent {
		if p < 0 {
			out[inv[v]] = -1
		} else {
			out[inv[v]] = inv[p]
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
	id := ordering.Identity(g.N)
	return colCounts(new(arena), g, id, id, parent, Postorder(parent), make([]int32, g.N))
}

// colCounts writes into count, and returns, the ColCounts of g
// relabelled by order — label j is vertex order[j], vertex u has label
// inv[u] — given a postorder of parent, the tree on the new labels. A
// column's neighbours come in g's order rather than by label, which
// changes how the union-find paths are compressed but none of the roots
// it finds, so no count.
func colCounts(ar *arena, g *sparse.Graph, order ordering.Perm, inv, parent, post, count []int32) []int32 {
	defer ar.free(ar.used)
	n := g.N
	first := ar.take(n)    // first[j]: postorder rank of j's first descendant
	maxFirst := ar.take(n) // largest first[j] over the leaves seen in row i's subtree
	prevLeaf := ar.take(n) // the last such leaf
	ancestor := ar.take(n) // union-find over the subtrees already passed
	for i := range first {
		count[i], first[i], maxFirst[i], prevLeaf[i], ancestor[i] = 0, -1, -1, -1, int32(i)
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
		for _, u := range g.AdjOf(int(order[j])) {
			i := inv[u]
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
