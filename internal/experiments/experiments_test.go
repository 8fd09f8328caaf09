package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ordering"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// tinyLab runs the suite at a very small scale: fast enough for unit
// tests, large enough to exercise every code path. Tests that neither set
// GOMAXPROCS nor swap package state run in parallel: most run sequential
// loops (Table 3, the ablations) and would leave cores idle.
func tinyLab() *Lab {
	cfg := DefaultConfig()
	cfg.ScalePerProcs = map[int]float64{
		4:   0.02,
		32:  0.03,
		64:  0.05,
		128: 0.08,
	}
	return NewLab(cfg)
}

func TestMatricesListsAllProblems(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	rows, err := lab.Matrices(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	for _, r := range rows {
		if r.GenOrder <= 0 || r.GenNNZ <= 0 {
			t.Fatalf("%s: empty generated matrix", r.Name)
		}
		if r.PaperOrder <= 0 {
			t.Fatalf("%s: missing paper order", r.Name)
		}
	}
	var buf bytes.Buffer
	WriteMatrices(&buf, rows)
	if !strings.Contains(buf.String(), "GUPTA3") {
		t.Fatal("rendering misses a matrix")
	}
}

func TestTable3Coverage(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	rows, err := lab.Table3()
	if err != nil {
		t.Fatal(err)
	}
	// 8 set-1 matrices × {32, 64} + 3 set-2 × {64, 128}.
	if len(rows) != 8*2+3*2 {
		t.Fatalf("got %d rows, want 22", len(rows))
	}
	withPaper := 0
	for _, r := range rows {
		if r.Measured <= 0 {
			t.Fatalf("%s@%d: no decisions", r.Name, r.Procs)
		}
		if r.Paper > 0 {
			withPaper++
		}
	}
	if withPaper != len(rows) {
		t.Fatalf("paper values missing for %d rows", len(rows)-withPaper)
	}
	var buf bytes.Buffer
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "AUDIKW_1") {
		t.Fatal("rendering misses a matrix")
	}
}

func TestTable4SingleProcsRuns(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	rows, err := lab.Table4([]int{32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Measured.Increments <= 0 || r.Measured.Snapshot <= 0 || r.Measured.Naive <= 0 {
			t.Fatalf("%s: missing measurement: %+v", r.Name, r.Measured)
		}
		if r.Paper.Increments <= 0 {
			t.Fatalf("%s: missing paper row", r.Name)
		}
	}
	var buf bytes.Buffer
	WriteTable4(&buf, rows)
	if !strings.Contains(buf.String(), "ULTRASOUND3") {
		t.Fatal("rendering incomplete")
	}
}

func TestTable567SingleProcs(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	rows, err := lab.Table567([]int{64}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Time.Increments <= 0 || r.Time.Snapshot <= 0 {
			t.Fatalf("%s: missing times", r.Name)
		}
		if r.Msgs.Increments <= r.Msgs.Snapshot {
			t.Fatalf("%s: increments should use more messages (got %d vs %d)",
				r.Name, r.Msgs.Increments, r.Msgs.Snapshot)
		}
		if r.ThreadedTime.Increments <= 0 || r.ThreadedTime.Snapshot <= 0 {
			t.Fatalf("%s: missing threaded times", r.Name)
		}
		// Single-threaded, the busiest rank's four parts are its whole
		// makespan (the per-rank time identity).
		for _, p := range []CellProfile{r.Profile.Increments, r.Profile.Snapshot} {
			if sum := p.Static + p.Dynamic + p.Blocked + p.Idle; math.Abs(sum-1) > 1e-9 || p.Efficiency <= 0 || p.Efficiency > 1 {
				t.Fatalf("%s: profile %+v: parts sum to %g, want 1, and efficiency in (0, 1]", r.Name, p, sum)
			}
		}
		if r.ThreadedProfile.Increments.Efficiency <= 0 || r.ThreadedProfile.Snapshot.Efficiency <= 0 {
			t.Fatalf("%s: missing threaded profile %+v", r.Name, r.ThreadedProfile)
		}
	}
	for _, render := range []func(*bytes.Buffer){
		func(b *bytes.Buffer) { WriteTable5(b, rows) },
		func(b *bytes.Buffer) { WriteTable6(b, rows) },
		func(b *bytes.Buffer) { WriteTable7(b, rows) },
	} {
		var buf bytes.Buffer
		render(&buf)
		if !strings.Contains(buf.String(), "CONV3D64") {
			t.Fatal("rendering incomplete")
		}
	}
	var buf bytes.Buffer
	WriteTable5(&buf, rows)
	if got := strings.Count(buf.String(), " | increments "); got != len(rows) {
		t.Fatalf("Table 5 prints %d increments profile lines for %d rows", got, len(rows))
	}
}

func TestFigure1AllMechanisms(t *testing.T) {
	var buf bytes.Buffer
	for _, mech := range core.Mechanisms() {
		if err := Figure1(&buf, mech); err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "STALE") {
		t.Fatal("naive run did not exhibit the stale view")
	}
	if strings.Count(out, "COHERENT") != 2 {
		t.Fatal("increments and snapshot must both be coherent")
	}
}

func TestFigure2Renders(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	var buf bytes.Buffer
	if err := lab.Figure2(&buf, "BMWCRA_1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"subtree", "T1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationNoMoreMasterReduces(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	rows, err := lab.AblationNoMoreMaster(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ReductionFactor < 1 {
			t.Fatalf("%s: No_more_master increased messages (%v)", r.Name, r.ReductionFactor)
		}
	}
	var buf bytes.Buffer
	WriteAblationNoMoreMaster(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestAblationLeaderElectionRuns(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	rows, err := lab.AblationLeaderElection(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MinRank <= 0 || r.MaxRank <= 0 || r.ByLoadKey <= 0 {
			t.Fatalf("%s: missing results: %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	WriteAblationLeaderElection(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestAblationThresholdMonotoneMessages(t *testing.T) {
	t.Parallel()
	lab := tinyLab()
	rows, err := lab.AblationThreshold("ULTRASOUND80", 64, []float64{0.25, 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Msgs <= rows[1].Msgs {
		t.Fatalf("lower threshold must send more messages: %+v", rows)
	}
	var buf bytes.Buffer
	WriteAblationThreshold(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestRunOneUnknownProblem(t *testing.T) {
	lab := tinyLab()
	if _, err := lab.RunOne("NOPE", 4, core.MechNaive, sched.Workload(), nil); err == nil {
		t.Fatal("unknown problem accepted")
	}
}

// onlyEntry returns the analysis in the Lab's single cache entry, failing
// unless there is exactly one.
func onlyEntry(t *testing.T, lab *Lab) *symbolic.Analysis {
	t.Helper()
	lab.mu.Lock()
	n := len(lab.cache)
	var memo func() (*symbolic.Analysis, error)
	for _, f := range lab.cache {
		memo = f
	}
	lab.mu.Unlock()
	if n != 1 {
		t.Fatalf("cache has %d entries, want 1", n)
	}
	a, _ := memo()
	return a
}

func TestLabCachesAnalyses(t *testing.T) {
	lab := tinyLab()
	if _, err := lab.Mapping("GUPTA3", 32); err != nil {
		t.Fatal(err)
	}
	first := onlyEntry(t, lab)
	if _, err := lab.Mapping("GUPTA3", 32); err != nil {
		t.Fatal(err)
	}
	if first == nil || onlyEntry(t, lab) != first {
		t.Fatal("analysis not reused")
	}
}

// TestLabAnalysisSingleFlight starts eight first callers of one key at
// once: the analysis must be computed once and shared by all of them.
func TestLabAnalysisSingleFlight(t *testing.T) {
	var calls atomic.Int32
	var made atomic.Pointer[symbolic.Analysis]
	analyzeGraph = func(g *sparse.Graph, perm ordering.Perm, sym bool, amalg symbolic.AmalgParams) (*symbolic.Analysis, error) {
		calls.Add(1)
		a, err := symbolic.AnalyzeGraph(g, perm, sym, amalg)
		made.Store(a)
		return a, err
	}
	t.Cleanup(func() { analyzeGraph = symbolic.AnalyzeGraph })

	lab := tinyLab()
	const callers = 8
	start := make(chan struct{})
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := lab.Mapping("GUPTA3", 32)
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("analysis computed %d times, want 1", n)
	}
	if a := onlyEntry(t, lab); a == nil || a != made.Load() {
		t.Fatal("callers do not share the one computed analysis")
	}
}

// TestTablesIndependentOfWorkers runs Tables 4 and 5-7 (threaded columns
// included, which TestTablesGolden does not cover) on four workers and on
// one: the rows must be identical, and no goroutine may outlive a call.
// The four-worker pass runs first on a cold Lab, so analyses overlap the
// cells; the one-worker pass reuses them, since the analysis stage is one
// goroutine whatever the worker count.
func TestTablesIndependentOfWorkers(t *testing.T) {
	type tables struct {
		T4   []Table4Row
		T567 []Table567Row
	}
	lab := tinyLab()
	run := func(workers int) tables {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		var out tables
		var err error
		before := runtime.NumGoroutine()
		if out.T4, err = lab.Table4([]int{32}); err != nil {
			t.Fatal(err)
		}
		settled(t, before)
		if out.T567, err = lab.Table567([]int{64}, true); err != nil {
			t.Fatal(err)
		}
		settled(t, before)
		return out
	}
	four, one := run(4), run(1)
	if !reflect.DeepEqual(four, one) {
		t.Fatalf("rows depend on the worker count\n4 workers: %+v\n1 worker:  %+v", four, one)
	}
}

// TestLabRunCellsLowestIndexError fails two cells, the earlier one slowly:
// the pipeline must still return the earlier error, as the sequential
// loop would, and only after its goroutines are gone.
func TestLabRunCellsLowestIndexError(t *testing.T) {
	lab := tinyLab()
	before := runtime.NumGoroutine()
	err := lab.runCells(4, 3, func(int) (string, int) { return "GUPTA3", 32 }, func(i, k int) error {
		switch c := i*3 + k; c {
		case 5:
			time.Sleep(20 * time.Millisecond)
			return fmt.Errorf("cell %d", c)
		case 10:
			return fmt.Errorf("cell %d", c)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 5" {
		t.Fatalf("got error %v, want cell 5", err)
	}
	settled(t, before)
}

// settled fails unless the goroutine count returns to want: a goroutine
// that has signalled completion may need a moment to exit.
func settled(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
