package tree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func TestSplitPreservesPivotsAndOrder(t *testing.T) {
	tr := analyzeGrid(t, 8, 8, 8)
	split := Split(tr, DefaultSplit())
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	var before, after int64
	for i := range tr.Nodes {
		before += int64(tr.Nodes[i].Npiv)
	}
	for i := range split.Nodes {
		after += int64(split.Nodes[i].Npiv)
	}
	if before != after {
		t.Fatalf("pivot count changed: %d -> %d", before, after)
	}
	if split.N != tr.N {
		t.Fatal("matrix order changed")
	}
	if len(split.Nodes) < len(tr.Nodes) {
		t.Fatal("splitting cannot reduce the node count")
	}
}

func TestSplitThinsPivotBlocks(t *testing.T) {
	tr := analyzeGrid(t, 10, 10, 10)
	prm := DefaultSplit()
	split := Split(tr, prm)
	for i := range split.Nodes {
		n := &split.Nodes[i]
		if n.Nfront < prm.MinFront {
			continue
		}
		limit := int32(math.Round(prm.MaxPivFrac*float64(n.Nfront))) + prm.MinPiv
		if n.Npiv > 2*limit {
			t.Fatalf("node %d still thick: npiv=%d nfront=%d (limit %d)", n.ID, n.Npiv, n.Nfront, 2*limit)
		}
	}
}

func TestSplitChainStructure(t *testing.T) {
	// A single thick node becomes a chain: each piece has exactly one
	// child (the previous piece) and fronts shrink by npiv along the
	// chain.
	one := &Tree{
		Nodes: []Node{{ID: 0, Parent: -1, Npiv: 200, Nfront: 400, Subtree: -1}},
		Roots: []int32{0},
		N:     200,
	}
	one.Nodes[0].Cost = FrontFlops(400, 200, false)
	one.Nodes[0].SubtreeCost = one.Nodes[0].Cost
	one.TotalCost = one.Nodes[0].Cost
	split := Split(one, DefaultSplit())
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(split.Nodes) < 3 {
		t.Fatalf("thick node not split: %d pieces", len(split.Nodes))
	}
	for i := 0; i < len(split.Nodes)-1; i++ {
		if split.Nodes[i].Parent != int32(i+1) {
			t.Fatalf("not a chain at %d", i)
		}
		if split.Nodes[i+1].Nfront != split.Nodes[i].Nfront-split.Nodes[i].Npiv {
			t.Fatal("front sizes do not telescope")
		}
	}
	if split.Nodes[0].Nfront != 400 {
		t.Fatal("chain bottom must keep the original front")
	}
}

func TestSplitLeavesSmallNodesAlone(t *testing.T) {
	small := &Tree{
		Nodes: []Node{{ID: 0, Parent: -1, Npiv: 20, Nfront: 50, Subtree: -1}},
		Roots: []int32{0},
		N:     20,
	}
	small.Nodes[0].Cost = FrontFlops(50, 20, false)
	small.TotalCost = small.Nodes[0].Cost
	split := Split(small, DefaultSplit())
	if len(split.Nodes) != 1 {
		t.Fatalf("small node split into %d pieces", len(split.Nodes))
	}
}

func TestSplitCostConserved(t *testing.T) {
	// Splitting changes the per-node costs (more, smaller fronts) but
	// the total stays within the telescoping identity: the summed flops
	// of the chain equal the original front's flops (partial
	// factorization composes exactly).
	f := func(nfRaw, npRaw uint16) bool {
		nf := int32(nfRaw%2000) + 200
		np := nf/2 + int32(npRaw)%(nf/2)
		one := &Tree{
			Nodes: []Node{{ID: 0, Parent: -1, Npiv: np, Nfront: nf, Subtree: -1}},
			Roots: []int32{0},
			N:     int(np),
		}
		one.Nodes[0].Cost = FrontFlops(nf, np, false)
		one.TotalCost = one.Nodes[0].Cost
		split := Split(one, DefaultSplit())
		var total float64
		for i := range split.Nodes {
			total += split.Nodes[i].Cost
		}
		return math.Abs(total-one.TotalCost) < 1e-9*one.TotalCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSizesCoverExactly(t *testing.T) {
	f := func(nfRaw, npRaw uint16) bool {
		nf := int32(nfRaw%4000) + 10
		np := int32(npRaw)%nf + 1
		sizes := splitSizes(nil, np, nf, DefaultSplit())
		var sum int32
		for _, s := range sizes {
			if s <= 0 {
				return false
			}
			sum += s
		}
		return sum == np
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitOnRealProblem(t *testing.T) {
	pr, err := sparse.ByName("AUDIKW_1")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pr.Generate(0.01, 3)
	a, err := symbolic.Analyze(p, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := Build(a)
	split := Split(tr, DefaultSplit())
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(split.TotalCost-tr.TotalCost) > 0.02*tr.TotalCost {
		t.Fatalf("splitting distorted total cost: %.4g -> %.4g", tr.TotalCost, split.TotalCost)
	}
}
