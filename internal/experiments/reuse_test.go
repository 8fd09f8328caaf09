package experiments

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/symbolic"
)

// TestLabScratchReuseMatchesFresh runs cells that differ in problem,
// rank count, mechanism and strategy one after another, each on a new
// Lab so that its analysis is computed again, on the scratch the
// previous one left: the analysis arena, the bisection keys and the
// simulator. Every Analysis and Result must equal the one the same cell
// produced with nothing kept, as in a fresh process; then two goroutines
// interleave the cells in opposite orders, sharing the kept scratch.
func TestLabScratchReuseMatchesFresh(t *testing.T) {
	type cell struct {
		name  string
		procs int
		mech  core.Mech
		strat func() *sched.Strategy
	}
	cells := []cell{
		{"GUPTA3", 32, core.MechSnapshot, sched.Memory},
		{"ULTRASOUND80", 64, core.MechIncrements, sched.Workload},
		{"PRE2", 4, core.MechNaive, sched.Memory},
	}
	type outcome struct {
		A   *symbolic.Analysis
		Res *solver.Result
	}
	run := func(c cell) (outcome, error) {
		lab := tinyLab()
		res, err := lab.RunOne(c.name, c.procs, c.mech, c.strat(), nil)
		if err != nil {
			return outcome{}, err
		}
		a, err := lab.analysis(c.name, c.procs)
		return outcome{a, res}, err
	}
	fresh := make([]outcome, len(cells))
	for i, c := range cells {
		runtime.GC() // nothing is kept across a collection: this cell grows its own scratch
		var err error
		if fresh[i], err = run(c); err != nil {
			t.Fatal(err)
		}
	}
	// The collector stays off from here, so each cell finds what the last
	// one kept.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	check := func(i int) {
		got, err := run(cells[i])
		if err != nil {
			t.Error(err)
		} else if !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("%s@%d/%s on kept scratch differs from a fresh run", cells[i].name, cells[i].procs, cells[i].mech)
		}
	}
	for _, i := range []int{0, 1, 0, 2, 1, 2} {
		check(i)
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(cells) {
				check((k + g) % len(cells))
			}
		}()
	}
	wg.Wait()
}

// TestColdRoundAllocation pins what one cold round of the tables
// benchmark allocates — a new Lab, Table 4 at 32 processes and Tables 5-6
// at 64, Scale 0.2 — with nothing kept from earlier runs. It was 182 MB
// while analyses and cells regrew their scratch; it is 72 MB now.
func TestColdRoundAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole tables round")
	}
	runtime.GC() // drop whatever earlier tests left for reuse
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	cfg.Scale = 0.2
	lab := NewLab(cfg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := lab.Table4([]int{32}); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.Table567([]int{64}, false); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	const bound = 95 << 20
	if got := m1.TotalAlloc - m0.TotalAlloc; got > bound {
		t.Fatalf("a cold tables round allocated %.1f MB, bound %d MB", float64(got)/(1<<20), bound>>20)
	} else {
		t.Logf("a cold tables round allocated %.1f MB", float64(got)/(1<<20))
	}
}
