package solver

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/workload"
)

// TestGridAnalysisMatchesAnalyze keeps the recipe the scenarios used
// before as an oracle: Grid3D's own graph under minimum degree through
// AnalyzeGraph is exactly symbolic.Analyze of the grid's pattern.
func TestGridAnalysisMatchesAnalyze(t *testing.T) {
	for _, nx := range []int{8, 10} {
		got, err := gridAnalysis(nx)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := sparse.Grid3D(nx, nx, nx, 1, sparse.Star, sparse.Sym)
		want, err := symbolic.Analyze(p, symbolic.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("grid %d: memoized analysis differs from symbolic.Analyze of the pattern", nx)
		}
	}
}

// TestSolverScenariosShareAnalysis: the three solver scenarios at one
// cluster size build their apps from one memoized analysis.
func TestSolverScenariosShareAnalysis(t *testing.T) {
	const procs = 16
	nx := gridFor(procs)
	if _, err := gridAnalysis(nx); err != nil {
		t.Fatal(err)
	}
	gridMu.Lock()
	memo := gridMemo[nx]
	var got []*symbolic.Analysis
	gridMemo[nx] = func() (*symbolic.Analysis, error) {
		a, err := memo()
		got = append(got, a)
		return a, err
	}
	gridMu.Unlock()
	t.Cleanup(func() {
		gridMu.Lock()
		gridMemo[nx] = memo
		gridMu.Unlock()
	})

	names := []string{"solver-wl", "solver-mem", "solver-hetero"}
	for _, name := range names {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.NewApp(core.MechIncrements, core.Config{}, workload.Params{Procs: procs}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(got) != len(names) || got[0] == nil {
		t.Fatalf("memo served %d analyses to %d scenarios", len(got), len(names))
	}
	for i, a := range got {
		if a != got[0] {
			t.Fatalf("%s got analysis %p, %s got %p", names[i], a, names[0], got[0])
		}
	}
}
