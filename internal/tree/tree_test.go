package tree

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func analyzeGrid(t *testing.T, nx, ny, nz int) *Tree {
	t.Helper()
	p, _ := sparse.Grid3D(nx, ny, nz, 1, sparse.Star, sparse.Sym)
	a, err := symbolic.Analyze(p, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return Build(a)
}

func TestBuildComputesCosts(t *testing.T) {
	tr := analyzeGrid(t, 5, 5, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.TotalCost <= 0 {
		t.Fatal("no total cost")
	}
	var sum float64
	for i := range tr.Nodes {
		if tr.Nodes[i].Cost < 0 {
			t.Fatal("negative node cost")
		}
		sum += tr.Nodes[i].Cost
	}
	if math.Abs(sum-tr.TotalCost) > 1e-6*tr.TotalCost {
		t.Fatal("total cost mismatch")
	}
	// Subtree cost of a root covers everything under it.
	var rootSum float64
	for _, r := range tr.Roots {
		rootSum += tr.Nodes[r].SubtreeCost
	}
	if math.Abs(rootSum-tr.TotalCost) > 1e-6*tr.TotalCost {
		t.Fatalf("root subtree cost %v != total %v", rootSum, tr.TotalCost)
	}
}

func TestFlopDecomposition(t *testing.T) {
	// Master + slave flops must equal total flops for any front split.
	f := func(nfRaw, npRaw uint16, sym bool) bool {
		nf := int32(nfRaw%2000) + 2
		np := int32(npRaw)%nf + 1
		total := FrontFlops(nf, np, sym)
		master := MasterFlops(nf, np, sym)
		slave := SlaveFlops(nf, np, nf-np, sym)
		return math.Abs(total-master-slave) < 1e-6*math.Max(total, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryDecomposition(t *testing.T) {
	// Factor + CB = front, for both symmetries.
	f := func(nfRaw, npRaw uint16, sym bool) bool {
		nf := int32(nfRaw%3000) + 2
		np := int32(npRaw)%nf + 1
		front := FrontEntries(nf, sym)
		cb := CBEntries(nf, np, sym)
		factor := FactorEntries(nf, np, sym)
		return math.Abs(front-cb-factor) < 1e-6*front && cb >= 0 && factor > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlaveCostsScaleWithRows(t *testing.T) {
	a := SlaveFlops(100, 20, 10, false)
	b := SlaveFlops(100, 20, 20, false)
	if math.Abs(b-2*a) > 1e-9 {
		t.Fatalf("slave flops not linear in rows: %v vs %v", a, b)
	}
	if SlaveBlockEntries(100, 20, 10, false) != 1000 {
		t.Fatal("slave block entries wrong")
	}
	if SlaveCBEntries(100, 20, 10, false) != 800 {
		t.Fatal("slave CB entries wrong")
	}
}

func TestSymmetricCostsHalved(t *testing.T) {
	if FrontFlops(100, 30, true)*2 != FrontFlops(100, 30, false) {
		t.Fatal("symmetric flops not half of unsymmetric")
	}
}

func TestComputeSeconds(t *testing.T) {
	if ComputeSeconds(2e9, 1e9) != 2 {
		t.Fatal("ComputeSeconds wrong")
	}
	if ComputeSeconds(1, 0) != 0 {
		t.Fatal("zero speed must yield zero")
	}
}

func TestLeaves(t *testing.T) {
	tr := analyzeGrid(t, 4, 4, 4)
	leaves := tr.Leaves()
	if len(leaves) == 0 {
		t.Fatal("no leaves")
	}
	for _, l := range leaves {
		if len(tr.Nodes[l].Children) != 0 {
			t.Fatal("leaf has children")
		}
	}
}

func TestRenderASCII(t *testing.T) {
	tr := analyzeGrid(t, 4, 4, 2)
	var buf bytes.Buffer
	tr.RenderASCII(&buf, func(id int32) string { return "P0" }, 3)
	out := buf.String()
	if !strings.Contains(out, "npiv=") || !strings.Contains(out, "P0") {
		t.Fatalf("ASCII render missing content:\n%s", out)
	}
}
