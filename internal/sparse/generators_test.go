package sparse

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestGridPerturbedStructure(t *testing.T) {
	rng := sim.NewRNG(4)
	p, g := GridPerturbed(20, 20, 0.05, rng, Unsym)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N != 400 {
		t.Fatalf("n = %d, want 400", p.N)
	}
	if g.Coords == nil {
		t.Fatal("perturbed grid must carry coordinates for geometric ND")
	}
	// Interior grid vertex keeps its 4 mesh neighbours (plus possibly
	// random extras).
	if d := g.Degree(20*10 + 10); d < 4 {
		t.Fatalf("interior degree %d < 4", d)
	}
	// The perturbation added at least one long-range edge somewhere.
	long := false
	for v := 0; v < g.N && !long; v++ {
		for _, u := range g.AdjOf(v) {
			dx := g.Coords[v][0] - g.Coords[u][0]
			dy := g.Coords[v][1] - g.Coords[u][1]
			if dx*dx+dy*dy > 4 {
				long = true
				break
			}
		}
	}
	if !long {
		t.Fatal("no long-range edges generated")
	}
}

func TestGridPerturbedZeroExtraIsPlanar(t *testing.T) {
	rng := sim.NewRNG(4)
	_, g := GridPerturbed(10, 10, 0, rng, Unsym)
	for v := 0; v < g.N; v++ {
		if g.Degree(v) > 4 {
			t.Fatalf("vertex %d degree %d > 4 without perturbation", v, g.Degree(v))
		}
	}
}

func TestCliqueOverlayStructure(t *testing.T) {
	rng := sim.NewRNG(9)
	p := CliqueOverlay(500, 12, 30, 4, rng)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := p.ToGraph()
	// Clique members have degree around cliqueSize; background-only
	// vertices sit near bgDeg. The max must clearly exceed the
	// background.
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 20 {
		t.Fatalf("max degree %d, want clique-sized", maxDeg)
	}
}

func TestCliqueOverlayValidProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw, csRaw uint8) bool {
		n := int(nRaw)%400 + 50
		k := int(kRaw)%10 + 1
		cs := int(csRaw)%20 + 3
		p := CliqueOverlay(n, k, cs, 2, sim.NewRNG(seed))
		return p.Validate() == nil && p.N == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleHelpers(t *testing.T) {
	if scaleDim(100, 1) != 100 {
		t.Fatal("scaleDim identity")
	}
	if scaleDim(100, 0.125) != 50 {
		t.Fatalf("scaleDim(100, 1/8) = %d, want 50 (cbrt volume scaling)", scaleDim(100, 0.125))
	}
	if scaleDim(10, 1e-9) < 6 {
		t.Fatal("scaleDim floor violated")
	}
	if scaleN(10000, 0.25) != 2500 {
		t.Fatal("scaleN linear scaling")
	}
	if scaleN(1000, 1e-9) < 400 {
		t.Fatal("scaleN floor violated")
	}
	if intSqrt(49) != 7 || intSqrt(50) != 7 {
		t.Fatal("intSqrt wrong")
	}
	if intSqrt(1) != 4 {
		t.Fatal("intSqrt floor violated")
	}
}

// TestGraphMatchesGenerate: every registry problem's Graph is the graph
// Generate returns, and Generate still derives the pattern of the
// problem's kind; a grid or shell builds its graph alone, without the
// pattern (three slices and a header).
func TestGraphMatchesGenerate(t *testing.T) {
	for _, pr := range Registry {
		p, g := pr.Generate(0.02, 3)
		if got := pr.Graph(0.02, 3); !reflect.DeepEqual(got, g) {
			t.Fatalf("%s: Graph differs from Generate's graph", pr.Name)
		}
		if err := p.Validate(); err != nil || p.Kind != pr.Kind || p.N != g.N {
			t.Fatalf("%s: Generate's pattern is %v of kind %s and order %d, want a valid %s of order %d",
				pr.Name, err, p.Kind, p.N, pr.Kind, g.N)
		}
		if !reflect.DeepEqual(p.ToGraph().Adj, g.Adj) {
			t.Fatalf("%s: the pattern's structure is not the graph's", pr.Name)
		}
	}
	pr, err := ByName("BMWCRA_1")
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(3, func() { pr.Graph(0.02, 1) }); got != 4 {
		t.Fatalf("BMWCRA_1's Graph allocates %v times, want 4", got)
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"GUPTA3", "PRE2", "TWOTONE"} {
		pr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := pr.Generate(0.05, 7)
		b, _ := pr.Generate(0.05, 7)
		if a.N != b.N || a.Stored() != b.Stored() {
			t.Fatalf("%s: generation not deterministic", name)
		}
		for i := range a.RowIdx {
			if a.RowIdx[i] != b.RowIdx[i] {
				t.Fatalf("%s: pattern differs", name)
			}
		}
		c, _ := pr.Generate(0.05, 8)
		if c.Stored() == a.Stored() && name != "GUPTA3" {
			// Different seeds should (almost surely) differ for random
			// generators; allow coincidence only on tiny GUPTA3.
			same := true
			for i := range a.RowIdx {
				if i >= len(c.RowIdx) || a.RowIdx[i] != c.RowIdx[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s: seed has no effect", name)
			}
		}
	}
}

func TestNNZMatchesShapeClassRoughly(t *testing.T) {
	// The analogues should have nnz/n within a factor ~4 of the paper's
	// ratio for mesh-type problems (structure class preserved).
	for _, name := range []string{"BMWCRA_1", "XENON2", "CONV3D64", "MSDOOR"} {
		pr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := pr.Generate(0.1, 1)
		paperRatio := float64(pr.PaperNNZ) / float64(pr.PaperOrder)
		genRatio := float64(p.NNZ()) / float64(p.N)
		if genRatio < paperRatio/4 || genRatio > paperRatio*4 {
			t.Fatalf("%s: nnz/n = %.1f vs paper %.1f (shape class lost)", name, genRatio, paperRatio)
		}
	}
}
