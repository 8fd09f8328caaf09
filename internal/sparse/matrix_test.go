package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestBuilderDedupAndSort(t *testing.T) {
	b := NewBuilder(4, Unsym)
	b.Add(2, 1)
	b.Add(0, 1)
	b.Add(2, 1) // duplicate
	b.Add(3, 3)
	b.Add(1, 0)
	p := b.Build()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Stored() != 4 {
		t.Fatalf("stored = %d, want 4 after dedup", p.Stored())
	}
}

func TestBuilderSymmetricMirrorsToLower(t *testing.T) {
	b := NewBuilder(3, Sym)
	b.Add(0, 2) // upper entry: must be stored as (2,0)
	b.Add(1, 1)
	p := b.Build()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	found := false
	for q := p.ColPtr[0]; q < p.ColPtr[1]; q++ {
		if p.RowIdx[q] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("upper entry not mirrored to lower triangle")
	}
}

func TestNNZSymmetricCountsMirror(t *testing.T) {
	// 3x3 with full diagonal and one off-diagonal pair.
	b := NewBuilder(3, Sym)
	for i := 0; i < 3; i++ {
		b.Add(i, i)
	}
	b.Add(2, 0)
	p := b.Build()
	if p.NNZ() != 5 { // 3 diagonal + 2 mirrored off-diagonal
		t.Fatalf("NNZ = %d, want 5", p.NNZ())
	}
}

func TestGrid3DStructure(t *testing.T) {
	p, g := Grid3D(3, 3, 3, 1, Star, Sym)
	if p.N != 27 {
		t.Fatalf("n = %d, want 27", p.N)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior vertex (1,1,1) = index 13 has 6 neighbours.
	if d := g.Degree(13); d != 6 {
		t.Fatalf("interior degree = %d, want 6", d)
	}
	// Corner vertex 0 has 3 neighbours.
	if d := g.Degree(0); d != 3 {
		t.Fatalf("corner degree = %d, want 3", d)
	}
	if len(g.Coords) != 27 {
		t.Fatal("coordinates missing")
	}
}

func TestGrid3DBoxStencil(t *testing.T) {
	_, g := Grid3D(3, 3, 3, 1, Box, Sym)
	if d := g.Degree(13); d != 26 {
		t.Fatalf("interior 27-point degree = %d, want 26", d)
	}
}

func TestGrid3DMultiDOF(t *testing.T) {
	p, g := Grid3D(2, 2, 2, 3, Star, Sym)
	if p.N != 24 {
		t.Fatalf("n = %d, want 24", p.N)
	}
	// Each vertex couples to 2 same-point dofs + 3 neighbours × 3 dofs.
	if d := g.Degree(0); d != 2+9 {
		t.Fatalf("degree = %d, want 11", d)
	}
}

func TestGraphSymmetryProperty(t *testing.T) {
	// Property: ToGraph always produces a symmetric adjacency with no
	// self-loops and no duplicates, for any generator output.
	f := func(seed uint64, nRaw uint8, degRaw uint8) bool {
		n := int(nRaw)%200 + 10
		deg := int(degRaw)%8 + 1
		rng := sim.NewRNG(seed)
		p := RandomSym(n, deg, 0.5, rng, Unsym)
		if p.Validate() != nil {
			return false
		}
		g := p.ToGraph()
		seen := map[[2]int32]bool{}
		for v := 0; v < g.N; v++ {
			prev := int32(-1)
			for _, u := range g.AdjOf(v) {
				if u == int32(v) || u <= prev {
					return false // self-loop or unsorted/dup
				}
				prev = u
				seen[[2]int32{int32(v), u}] = true
			}
		}
		for e := range seen {
			if !seen[[2]int32{e[1], e[0]}] {
				return false // asymmetric
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawSymHasDenseRows(t *testing.T) {
	rng := sim.NewRNG(3)
	p := PowerLawSym(1000, 6, 10, 200, rng)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := p.ToGraph()
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 100 {
		t.Fatalf("max degree = %d, want dense hub rows", maxDeg)
	}
}

func TestRegistryComplete(t *testing.T) {
	if len(Registry) != 11 {
		t.Fatalf("registry has %d problems, want 11 (8 in Table 1, 3 in Table 2)", len(Registry))
	}
	if len(Set1()) != 8 || len(Set2()) != 3 {
		t.Fatalf("Set1=%d Set2=%d, want 8 and 3", len(Set1()), len(Set2()))
	}
	for _, pr := range Registry {
		p, g := pr.Generate(0.02, 1)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		if g.N != p.N {
			t.Fatalf("%s: graph size mismatch", pr.Name)
		}
		if p.N < 100 {
			t.Fatalf("%s: scaled matrix too small (n=%d)", pr.Name, p.N)
		}
	}
}

func TestRegistryKindsMatchPaper(t *testing.T) {
	want := map[string]Kind{
		"BMWCRA_1": Sym, "GUPTA3": Sym, "MSDOOR": Sym, "SHIP_003": Sym,
		"PRE2": Unsym, "TWOTONE": Unsym, "ULTRASOUND3": Unsym, "XENON2": Unsym,
		"AUDIKW_1": Sym, "CONV3D64": Unsym, "ULTRASOUND80": Unsym,
	}
	for name, kind := range want {
		pr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Kind != kind {
			t.Fatalf("%s kind = %v, want %v", name, pr.Kind, kind)
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("ByName accepted unknown problem")
	}
}

func TestRegistryScaleMonotone(t *testing.T) {
	pr, _ := ByName("AUDIKW_1")
	small, _ := pr.Generate(0.01, 1)
	big, _ := pr.Generate(0.05, 1)
	if small.N >= big.N {
		t.Fatalf("scale not monotone: %d >= %d", small.N, big.N)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p, _ := Grid3D(5, 1, 1, 1, Star, Sym) // tridiagonal
	p.RowIdx[0] = 100
	if p.Validate() == nil {
		t.Fatal("out-of-range row not caught")
	}
	p, _ = Grid3D(5, 1, 1, 1, Star, Sym)
	p.ColPtr[2] = 0
	if p.Validate() == nil {
		t.Fatal("non-monotone ColPtr not caught")
	}
}
