package symbolic

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/ordering"
	"repro/internal/sim"
	"repro/internal/sparse"
)

func fnv64(xs []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestAnalysisBitIdentityFence pins the exact output of the analysis
// pipeline (generator → adjacency → nested dissection → etree → postorder →
// column counts). The hashes were recorded at the commit before the
// pipeline's sorts and the O(|L|) column counts were replaced by linear
// passes; everything downstream (tree, mapping, solver, the paper tables)
// is a function of these four vectors, so a kernel rewrite that keeps them
// keeps every table. A hash changes only when the model is meant to change.
func TestAnalysisBitIdentityFence(t *testing.T) {
	msdoor, err := sparse.ByName("MSDOOR") // a shell3 shape
	if err != nil {
		t.Fatal(err)
	}
	grid := func(dof int, st sparse.Stencil, kind sparse.Kind) func() (*sparse.Pattern, *sparse.Graph) {
		return func() (*sparse.Pattern, *sparse.Graph) { return sparse.Grid3D(9, 8, 7, dof, st, kind) }
	}
	cases := []struct {
		name                     string
		gen                      func() (*sparse.Pattern, *sparse.Graph)
		nd, perm, parent, counts uint64
	}{
		{"star-dof1-sym", grid(1, sparse.Star, sparse.Sym), 0xe6e0c61ad04d1009, 0xe6e0c61ad04d1009, 0x51aa0624360e7994, 0x492de20cd28b2672},
		{"star-dof3-sym", grid(3, sparse.Star, sparse.Sym), 0xe1a0187cbd864a35, 0x70cad355860c2f1d, 0x345a2ff9f235a0f1, 0xd684e0109d7d374e},
		{"box-dof1-unsym", grid(1, sparse.Box, sparse.Unsym), 0x68e0ae0b5e9183c9, 0x34a982df9f8972c5, 0xe007d6d883711314, 0x94f7306207b6c46c},
		{"box-dof3-unsym", grid(3, sparse.Box, sparse.Unsym), 0xf4df071c9bdb79e1, 0xf4df071c9bdb79e1, 0x2cdf42e141a059b6, 0x5b2421c780aff9d1},
		{"shell3-msdoor", func() (*sparse.Pattern, *sparse.Graph) { return msdoor.Generate(0.02, 1) }, 0x925784b71c79792d, 0x4ba313c1c6d50c0d, 0x91f3cda7c4781f07, 0xe3e3337e1af9a30f},
		{"grid-perturbed-unsym", func() (*sparse.Pattern, *sparse.Graph) {
			return sparse.GridPerturbed(40, 37, 0.05, sim.NewRNG(7), sparse.Unsym)
		}, 0xa0b79f08aaa207a1, 0x53121da024734ad5, 0x57db4e650acce1ba, 0xa4b45441430e7d5b},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, g := c.gen()
			nd := ordering.NestedDissection(g)
			a, err := AnalyzeGraph(g, nd, p.Kind == sparse.Sym, DefaultAmalg())
			if err != nil {
				t.Fatal(err)
			}
			got := [4]uint64{fnv64(nd), fnv64(a.Perm), fnv64(a.Parent), fnv64(a.Counts)}
			if want := [4]uint64{c.nd, c.perm, c.parent, c.counts}; got != want {
				t.Errorf("fence moved (nd, perm, parent, counts):\n got %#x\nwant %#x", got, want)
			}
		})
	}
}
