package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables_golden.json from this build (only when the model is meant to change)")

type tablesGolden struct {
	Seed uint64
	T4   []Table4Row
	T567 []Table567Row
}

// TestTablesGolden is the end-to-end half of the bit-identity fence: the
// rows of Table 4 at 32 processes and Tables 5-6 at 64, at the benchmark's
// scale, on three seeds, must equal rows captured before the analysis
// kernels were rewritten. Any change to generator, ordering, symbolic
// analysis, tree, mapping, solver or simulator output shows up here.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates six paper tables")
	}
	const path = "testdata/tables_golden.json"
	var got []tablesGolden
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Scale = 0.2
		lab := NewLab(cfg)
		g := tablesGolden{Seed: seed}
		var err error
		if g.T4, err = lab.Table4([]int{32}); err != nil {
			t.Fatal(err)
		}
		if g.T567, err = lab.Table567([]int{64}, false); err != nil {
			t.Fatal(err)
		}
		got = append(got, g)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []tablesGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden holds %d seeds, test ran %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("seed %d: rows differ from the golden\n got %+v\nwant %+v", want[i].Seed, got[i], want[i])
		}
	}
}
