// Package mapping performs the static phase of MUMPS scheduling (paper
// §4.1): Geist-Ng detection of sequential leaf subtrees, LPT assignment of
// subtrees to processors, node-type classification (Type 1/2/3) and the
// proportional mapping of Type 2 masters, which "only aims at balancing
// the memory of the corresponding factors".
package mapping

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/tree"
)

// Config tunes the static mapping.
type Config struct {
	// NProcs is the number of processes the application runs on.
	NProcs int
	// Type2MinFront: fronts smaller than this are never parallelized.
	Type2MinFront int32
	// Type2CostFrac: a node above the subtree layer becomes Type 2 when
	// its cost exceeds Type2CostFrac·TotalCost/NProcs. More processors ⇒
	// lower threshold ⇒ more dynamic decisions, matching the growth of
	// Table 3.
	Type2CostFrac float64
	// Type3MinFront: the root becomes Type 3 (2D static) above this size
	// when NProcs >= 4.
	Type3MinFront int32
	// SubtreesPerProc is the Geist-Ng target number of sequential leaf
	// subtrees per processor.
	SubtreesPerProc int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig(nprocs int) Config {
	return Config{
		NProcs:          nprocs,
		Type2MinFront:   48,
		Type2CostFrac:   0.02,
		Type3MinFront:   192,
		SubtreesPerProc: 4,
	}
}

// Mapping is the result of the static phase.
type Mapping struct {
	Tree   *tree.Tree
	Config Config
	// Master[id] is the statically chosen processor of node id: the owner
	// for Type 1 / subtree nodes, the master for Type 2/3 nodes.
	Master []int32
	// SubtreeRoots lists the Geist-Ng layer roots.
	SubtreeRoots []int32
	// SubtreeProc[k] is the processor of SubtreeRoots[k].
	SubtreeProc []int32
	// InitialLoad[p] is the cost of all subtrees assigned to p — the
	// initial workload of the workload-based strategy (§4.2.2).
	InitialLoad []float64
	// NumType2 is the number of dynamic decisions (Table 3).
	NumType2 int
	// Candidates[id], for a Type 2 node, lists the processors eligible
	// as its slaves: the node's proportional-mapping interval widened to
	// a workable minimum. Used by the partial-snapshot extension (§5) to
	// scope the demand-driven view to the processes that can actually be
	// selected.
	Candidates [][]int32
}

// Map computes the static mapping of t onto cfg.NProcs processors.
func Map(t *tree.Tree, cfg Config) (*Mapping, error) {
	if cfg.NProcs <= 0 {
		return nil, fmt.Errorf("mapping: need at least one processor")
	}
	if len(t.Nodes) == 0 {
		return nil, fmt.Errorf("mapping: empty tree")
	}
	m := &Mapping{
		Tree:        t,
		Config:      cfg,
		Master:      make([]int32, len(t.Nodes)),
		InitialLoad: make([]float64, cfg.NProcs),
	}

	m.findSubtreeLayer()
	m.assignSubtrees()
	m.classifyTypes()
	m.mapMasters()

	for i := range t.Nodes {
		if t.Nodes[i].Type == tree.Type2 {
			m.NumType2++
		}
	}
	return m, nil
}

// findSubtreeLayer performs the Geist-Ng construction: starting from the
// roots, repeatedly split the most expensive subtree until there are
// enough subtrees and none dominates the average processor share.
func (m *Mapping) findSubtreeLayer() {
	t := m.Tree
	target := m.Config.SubtreesPerProc * m.Config.NProcs
	if target < m.Config.NProcs {
		target = m.Config.NProcs
	}
	maxShare := t.TotalCost / float64(m.Config.NProcs)

	layer := append([]int32(nil), t.Roots...)
	// Priority: largest subtree cost first.
	costOf := func(id int32) float64 { return t.Nodes[id].SubtreeCost }
	for {
		slices.SortFunc(layer, func(a, b int32) int { return cmp.Compare(costOf(b), costOf(a)) })
		if len(layer) == 0 {
			break
		}
		big := layer[0]
		needSplit := len(layer) < target || costOf(big) > 0.8*maxShare
		if !needSplit || len(t.Nodes[big].Children) == 0 {
			// Also try splitting if the largest is a leaf but others are
			// splittable and we lack subtrees.
			if len(layer) >= target || allLeaves(t, layer) {
				break
			}
			// Move the largest splittable node to front.
			idx := -1
			for i, id := range layer {
				if len(t.Nodes[id].Children) > 0 {
					idx = i
					break
				}
			}
			if idx < 0 {
				break
			}
			big = layer[idx]
			layer = append(layer[:idx], layer[idx+1:]...)
			layer = append(layer, t.Nodes[big].Children...)
			continue
		}
		layer = layer[1:]
		layer = append(layer, t.Nodes[big].Children...)
	}
	slices.Sort(layer)
	m.SubtreeRoots = layer

	// Mark subtree membership.
	for i := range t.Nodes {
		t.Nodes[i].Subtree = -1
	}
	for k, r := range m.SubtreeRoots {
		markSubtree(t, r, int32(k))
	}
}

func allLeaves(t *tree.Tree, ids []int32) bool {
	for _, id := range ids {
		if len(t.Nodes[id].Children) > 0 {
			return false
		}
	}
	return true
}

func markSubtree(t *tree.Tree, root, k int32) {
	stack := []int32{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.Nodes[v].Subtree = k
		stack = append(stack, t.Nodes[v].Children...)
	}
}

// assignSubtrees distributes subtrees over processors by LPT (largest
// processing time first), minimizing the worst initial load.
func (m *Mapping) assignSubtrees() {
	t := m.Tree
	m.SubtreeProc = make([]int32, len(m.SubtreeRoots))
	order := make([]int, len(m.SubtreeRoots))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ca := t.Nodes[m.SubtreeRoots[a]].SubtreeCost
		cb := t.Nodes[m.SubtreeRoots[b]].SubtreeCost
		if ca != cb {
			return cmp.Compare(cb, ca)
		}
		return cmp.Compare(a, b)
	})
	for _, k := range order {
		best := 0
		for p := 1; p < m.Config.NProcs; p++ {
			if m.InitialLoad[p] < m.InitialLoad[best] {
				best = p
			}
		}
		m.SubtreeProc[k] = int32(best)
		m.InitialLoad[best] += t.Nodes[m.SubtreeRoots[k]].SubtreeCost
	}
	// Every node inside a subtree is owned by the subtree's processor.
	for i := range t.Nodes {
		if s := t.Nodes[i].Subtree; s >= 0 {
			m.Master[i] = m.SubtreeProc[s]
		}
	}
}

// classifyTypes sets the parallelism type of every node above the layer.
func (m *Mapping) classifyTypes() {
	t := m.Tree
	cfg := m.Config
	costTh := cfg.Type2CostFrac * t.TotalCost / float64(cfg.NProcs)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.Type = tree.Type1
		if n.Subtree >= 0 || cfg.NProcs == 1 {
			continue
		}
		if n.Nfront >= cfg.Type2MinFront && n.Cost > costTh {
			n.Type = tree.Type2
		}
	}
	// The top root becomes Type 3 when large enough (2D static, no
	// dynamic decision).
	if cfg.NProcs >= 4 {
		var top int32 = -1
		for _, r := range t.Roots {
			if top < 0 || t.Nodes[r].SubtreeCost > t.Nodes[top].SubtreeCost {
				top = r
			}
		}
		if top >= 0 && t.Nodes[top].Subtree < 0 && t.Nodes[top].Nfront >= cfg.Type3MinFront {
			t.Nodes[top].Type = tree.Type3
		}
	}
}

// mapMasters performs proportional mapping of the upper tree: each node
// inherits a processor interval from its parent, children split the
// interval proportionally to subtree cost, and the node's master is the
// interval processor currently holding the least factor memory (the
// memory-balancing criterion of §4.1).
func (m *Mapping) mapMasters() {
	t := m.Tree
	np := m.Config.NProcs
	factorMem := make([]float64, np)
	m.Candidates = make([][]int32, len(t.Nodes))

	type span struct{ lo, hi int32 } // [lo, hi)
	spans := make([]span, len(t.Nodes))
	for _, r := range t.Roots {
		spans[r] = span{0, int32(np)}
	}
	// Top-down: parents before children (reverse topological order).
	for i := len(t.Nodes) - 1; i >= 0; i-- {
		n := &t.Nodes[i]
		if n.Subtree >= 0 {
			continue // subtree nodes already owned
		}
		sp := spans[n.ID]
		if sp.hi <= sp.lo {
			sp.hi = sp.lo + 1
			if sp.hi > int32(np) {
				sp.lo, sp.hi = int32(np)-1, int32(np)
			}
			spans[n.ID] = sp
		}
		// Master: least factor memory within the span.
		best := sp.lo
		for p := sp.lo; p < sp.hi; p++ {
			if factorMem[p] < factorMem[best] {
				best = p
			}
		}
		m.Master[n.ID] = best
		factorMem[best] += tree.FactorEntries(n.Nfront, n.Npiv, t.Sym)
		if n.Type == tree.Type2 {
			m.Candidates[n.ID] = candidatesAround(sp.lo, sp.hi, int32(np), best)
		}

		// Split the span among children proportionally to subtree cost.
		kids := n.Children
		if len(kids) == 0 {
			continue
		}
		total := 0.0
		for _, c := range kids {
			total += t.Nodes[c].SubtreeCost
		}
		width := float64(sp.hi - sp.lo)
		acc := 0.0
		for _, c := range kids {
			frac := 1.0 / float64(len(kids))
			if total > 0 {
				frac = t.Nodes[c].SubtreeCost / total
			}
			lo := sp.lo + int32(acc*width)
			acc += frac
			hi := sp.lo + int32(acc*width+0.5)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > sp.hi {
				hi = sp.hi
			}
			if lo >= sp.hi {
				lo, hi = sp.hi-1, sp.hi
			}
			spans[c] = span{lo, hi}
		}
	}
}

// candidatesAround widens a proportional-mapping interval [lo, hi) to a
// workable candidate set (at least minCandidates processes, wrapping
// around the ring of ranks), excluding the master itself.
func candidatesAround(lo, hi, np, master int32) []int32 {
	const minCandidates = 8
	width := hi - lo
	if width < minCandidates {
		// Extend symmetrically around the interval, modulo np.
		extra := minCandidates - width
		lo -= extra / 2
		width = minCandidates
		if width > np {
			width = np
		}
	}
	out := make([]int32, 0, width)
	for k := int32(0); k < width; k++ {
		p := ((lo+k)%np + np) % np
		if p != master {
			out = append(out, p)
		}
	}
	return out
}

// Decisions returns the number of dynamic decisions (Type 2 slave
// selections), the quantity reported by Table 3.
func (m *Mapping) Decisions() int { return m.NumType2 }
