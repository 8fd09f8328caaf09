package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/solver"
)

// paperLab is the Scale 0.2 Lab the fidelity tests share, so each
// analysis is computed once across them.
var paperLab = sync.OnceValue(func() *Lab {
	cfg := DefaultConfig()
	cfg.Scale = 0.2
	return NewLab(cfg)
})

// TestPaperOrderings states the paper's conclusions as orderings and
// checks each one side by side: on the paper's own rows (the Paper*
// tables) and on ours. Our Tables 4-6 rows come from tables_golden.json,
// which TestTablesGolden keeps equal to a live run (Scale 0.2, seeds
// 1-3); Table 7's threaded rows and the threshold ablation run live at
// the same scale. Only orderings are claimed, never values: our platform
// and matrices are analogues, so the factors differ (logged below).
//
// Two claims are left out on purpose. "Naive's peak is never below
// increments'" is false in the paper itself (MSDOOR@64: 1.01 vs 0.84).
// The cross-matrix time ordering of Table 5 is contradicted by ours
// (our AUDIKW_1 is the slowest, the paper's CONV3D64): a divergence, not
// a reproduction.
func TestPaperOrderings(t *testing.T) {
	data, err := os.ReadFile("testdata/tables_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []tablesGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	lab := paperLab()
	threaded, err := lab.Table567([]int{64}, true)
	if err != nil {
		t.Fatal(err)
	}
	ablation, err := lab.AblationThreshold("AUDIKW_1", 64, nil)
	if err != nil {
		t.Fatal(err)
	}

	// span tracks the range of a ratio over the rows a claim covers.
	type span struct{ lo, hi float64 }
	widen := func(s *span, v float64) {
		if s.lo == 0 || v < s.lo {
			s.lo = v
		}
		s.hi = max(s.hi, v)
	}
	// holds records one claim on one side; every side must hold.
	holds := func(claim, side string, ok bool, row string) {
		if !ok {
			t.Errorf("%s: fails on %s at %s", claim, side, row)
		}
	}
	paperProcs := []int{64, 128}

	// Table 6: snapshot sends fewer state messages than increments.
	const t6 = "Table 6: snapshot sends fewer state messages than increments"
	var paper6, ours6 span
	for _, p := range paperProcs {
		for name, r := range PaperTable6[p] {
			holds(t6, "the paper", r.Snapshot < r.Increments, fmt.Sprintf("%s@%d", name, p))
			widen(&paper6, float64(r.Increments)/float64(r.Snapshot))
		}
	}
	for _, g := range golden {
		for _, r := range g.T567 {
			holds(t6, "ours", 0 < r.Msgs.Snapshot && r.Msgs.Snapshot < r.Msgs.Increments, fmt.Sprintf("%s@%d seed %d", r.Name, r.Procs, g.Seed))
			widen(&ours6, float64(r.Msgs.Increments)/float64(r.Msgs.Snapshot))
		}
	}
	t.Logf("%s: increments/snapshot %.1f-%.1f here, %.1f-%.1f in the paper", t6, ours6.lo, ours6.hi, paper6.lo, paper6.hi)

	// Table 5: snapshot is slower than increments.
	const t5 = "Table 5: snapshot is slower than increments"
	var paper5, ours5 span
	for _, p := range paperProcs {
		for name, r := range PaperTable5[p] {
			holds(t5, "the paper", r.Snapshot > r.Increments, fmt.Sprintf("%s@%d", name, p))
			widen(&paper5, r.Snapshot/r.Increments)
		}
	}
	for _, g := range golden {
		for _, r := range g.T567 {
			holds(t5, "ours", r.Time.Snapshot > r.Time.Increments, fmt.Sprintf("%s@%d seed %d", r.Name, r.Procs, g.Seed))
			widen(&ours5, r.Time.Snapshot/r.Time.Increments)
		}
	}
	t.Logf("%s: snapshot/increments %.2f-%.2f here, %.2f-%.2f in the paper", t5, ours5.lo, ours5.hi, paper5.lo, paper5.hi)

	// Table 7: the threaded model lowers snapshot's time, and moves
	// increments' by no more than the paper's own spread (0.77-1.06).
	const t7s = "Table 7: threading lowers snapshot's time"
	const t7i = "Table 7: threading leaves increments' time within [0.75, 1.10] of unthreaded"
	inBand := func(v float64) bool { return 0.75 <= v && v <= 1.10 }
	var paper7s, ours7s, paper7i, ours7i span
	for _, p := range paperProcs {
		for name, r := range PaperTable7[p] {
			u, row := PaperTable5[p][name], fmt.Sprintf("%s@%d", name, p)
			holds(t7s, "the paper", r.Snapshot < u.Snapshot, row)
			holds(t7i, "the paper", inBand(r.Increments/u.Increments), row)
			widen(&paper7s, r.Snapshot/u.Snapshot)
			widen(&paper7i, r.Increments/u.Increments)
		}
	}
	for _, r := range threaded {
		row := fmt.Sprintf("%s@%d", r.Name, r.Procs)
		holds(t7s, "ours", r.ThreadedTime.Snapshot < r.Time.Snapshot, row)
		holds(t7i, "ours", inBand(r.ThreadedTime.Increments/r.Time.Increments), row)
		widen(&ours7s, r.ThreadedTime.Snapshot/r.Time.Snapshot)
		widen(&ours7i, r.ThreadedTime.Increments/r.Time.Increments)
	}
	t.Logf("%s: threaded/unthreaded %.2f-%.2f here, %.2f-%.2f in the paper", t7s, ours7s.lo, ours7s.hi, paper7s.lo, paper7s.hi)
	t.Logf("%s: %.2f-%.2f here, %.2f-%.2f in the paper", t7i, ours7i.lo, ours7i.hi, paper7i.lo, paper7i.hi)

	// The threshold ablation (§2.3): a larger increments threshold sends
	// fewer state messages. The paper argues it without a table, so only
	// our side is checked.
	const abl = "Ablation: state messages fall as the increments threshold rises"
	for i := 1; i < len(ablation); i++ {
		prev, r := ablation[i-1], ablation[i]
		holds(abl, "ours", r.Msgs < prev.Msgs, fmt.Sprintf("%s@%d threshold ×%g", r.Name, r.Procs, r.Factor))
	}

	// Table 4: the per-matrix mechanism orderings that hold in the paper
	// at 32 and at 64 processes and on every seed here (our rows are at
	// 32). Elsewhere the order moves with the seed: GUPTA3 at 64
	// processes peaks lowest under naive at seed 3 and highest at seed 2.
	peak := func(r PeakRow, mech string) float64 {
		return map[string]float64{"increments": r.Increments, "snapshot": r.Snapshot, "naive": r.Naive}[mech]
	}
	for _, c := range []struct{ name, lower, higher string }{
		{"PRE2", "increments", "naive"},
		{"ULTRASOUND3", "snapshot", "increments"},
		{"ULTRASOUND3", "snapshot", "naive"},
		{"XENON2", "increments", "naive"},
		{"XENON2", "snapshot", "naive"},
	} {
		claim := fmt.Sprintf("Table 4: %s peaks lower under %s than under %s", c.name, c.lower, c.higher)
		for _, p := range []int{32, 64} {
			r := PaperTable4[p][c.name]
			holds(claim, "the paper", peak(r, c.lower) < peak(r, c.higher), fmt.Sprintf("%d procs", p))
		}
		for _, g := range golden {
			for _, r := range g.T4 {
				if r.Name == c.name {
					holds(claim, "ours", peak(r.Measured, c.lower) < peak(r.Measured, c.higher), fmt.Sprintf("%d procs, seed %d", r.Procs, g.Seed))
				}
			}
		}
	}
}

// TestPerRankTimeIdentity checks, on every Table 5 cell at the scale
// TestPaperOrderings runs, that the simulator accounts for each rank's
// whole makespan: compute + blocked + idle equals it on every rank, each
// term metered on its own transitions, and compute is the rank's
// executed flops at the solver's rate. The executed flops in turn split
// exactly into the work the static mapping fixed on the rank and the
// slave shares dynamic decisions assigned it.
//
// The identity holds for the exact-view oracle too, which sends no
// state message. Under -v the test also runs naive and logs each cell's
// increments and naive makespans beside the oracle's (FIDELITY row 9).
func TestPerRankTimeIdentity(t *testing.T) {
	lab := paperLab()
	type row struct {
		name  string
		procs int
	}
	var rows []row
	for _, procs := range []int{64, 128} {
		for _, name := range set2Names() {
			rows = append(rows, row{name, procs})
		}
	}
	const oracleMech core.Mech = "oracle"
	mechs := []core.Mech{core.MechIncrements, core.MechSnapshot, oracleMech}
	if testing.Verbose() {
		mechs = append(mechs, core.MechNaive)
	}
	times := make([][]float64, len(rows))
	for i := range times {
		times[i] = make([]float64, len(mechs))
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	err := lab.runCells(len(rows), len(mechs), func(i int) (string, int) { return rows[i].name, rows[i].procs }, func(i, k int) error {
		r, mech := rows[i], mechs[k]
		var mutate func(*solver.Params)
		if mech == oracleMech {
			mutate = func(p *solver.Params) { p.Exchanger = newOracle() }
		}
		res, err := lab.RunOne(r.name, r.procs, mech, sched.Workload(), mutate)
		if err != nil {
			return err
		}
		times[i][k] = res.Time
		if mech == oracleMech && res.StateMsgs != 0 {
			t.Errorf("%s@%d/oracle: %d state messages, want none", r.name, r.procs, res.StateMsgs)
		}
		rate := solver.DefaultParams(mech, nil).FlopsPerSecond
		for p := range r.procs {
			cell := fmt.Sprintf("%s@%d/%s rank %d", r.name, r.procs, mech, p)
			if sum := res.Compute[p] + res.Blocked[p] + res.Idle[p]; !near(sum, res.Time) {
				t.Errorf("%s: compute %g + blocked %g + idle %g = %g s, makespan %g s", cell, res.Compute[p], res.Blocked[p], res.Idle[p], sum, res.Time)
			}
			if want := res.ExecutedFlops[p] / rate; !near(res.Compute[p], want) {
				t.Errorf("%s: compute %g s, executed flops at the solver's rate %g s", cell, res.Compute[p], want)
			}
			if sum := res.StaticFlops[p] + res.SlaveFlops[p]; !near(sum, res.ExecutedFlops[p]) {
				t.Errorf("%s: static %g + dynamic %g = %g flops, executed %g", cell, res.StaticFlops[p], res.SlaveFlops[p], sum, res.ExecutedFlops[p])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		for i, r := range rows {
			oracle := times[i][2]
			t.Logf("%s@%d: oracle %.1f s, increments %+.1f %%, naive %+.1f %%", r.name, r.procs, oracle,
				100*(times[i][0]/oracle-1), 100*(times[i][3]/oracle-1))
		}
	}
}
