package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// set1Names returns the Table 1 matrices in table order.
func set1Names() []string {
	var names []string
	for _, pr := range sparse.Set1() {
		names = append(names, pr.Name)
	}
	sort.Strings(names)
	return names
}

// set2Names returns the Table 2 matrices.
func set2Names() []string {
	var names []string
	for _, pr := range sparse.Set2() {
		names = append(names, pr.Name)
	}
	sort.Strings(names)
	return names
}

// ---- Tables 1 & 2 -------------------------------------------------------

// MatrixRow describes one test problem: the paper's matrix and its
// synthetic analogue at the configured scale.
type MatrixRow struct {
	Name       string
	PaperOrder int
	PaperNNZ   int
	Kind       string
	GenOrder   int
	GenNNZ     int
	Desc       string
	Set        int
}

// Matrices regenerates Tables 1-2: the problem sets, paper vs generated.
func (l *Lab) Matrices(scaleProcs int) ([]MatrixRow, error) {
	var rows []MatrixRow
	for _, pr := range sparse.Registry {
		p, _ := pr.Generate(l.Cfg.scaleFor(scaleProcs), l.Cfg.Seed)
		rows = append(rows, MatrixRow{
			Name: pr.Name, PaperOrder: pr.PaperOrder, PaperNNZ: pr.PaperNNZ,
			Kind: pr.Kind.String(), GenOrder: p.N, GenNNZ: p.NNZ(),
			Desc: pr.Desc, Set: pr.Set,
		})
	}
	return rows, nil
}

// ---- Table 3 ------------------------------------------------------------

// DecisionRow is one Table 3 cell.
type DecisionRow struct {
	Name     string
	Procs    int
	Measured int
	Paper    int // 0 when the paper has no value for this cell
}

// Table3 regenerates the dynamic-decision counts.
func (l *Lab) Table3() ([]DecisionRow, error) {
	var rows []DecisionRow
	add := func(names []string, procs []int) error {
		for _, name := range names {
			for _, np := range procs {
				m, err := l.Mapping(name, np)
				if err != nil {
					return err
				}
				rows = append(rows, DecisionRow{
					Name: name, Procs: np,
					Measured: m.Decisions(),
					Paper:    PaperTable3[name][np],
				})
			}
		}
		return nil
	}
	if err := add(set1Names(), []int{32, 64}); err != nil {
		return nil, err
	}
	if err := add(set2Names(), []int{64, 128}); err != nil {
		return nil, err
	}
	return rows, nil
}

// ---- Table 4 ------------------------------------------------------------

// Table4Row is one Table 4 row: peak active memory (millions of entries)
// under the memory-based strategy, for the three mechanisms. Imbalance is
// the max/mean factor of the per-process peaks (1.0 = perfectly even), a
// diagnostic the paper discusses qualitatively.
type Table4Row struct {
	Name      string
	Procs     int
	Measured  PeakRow
	Paper     PeakRow
	Imbalance PeakRow
}

// Table4 regenerates the memory-based-strategy comparison.
func (l *Lab) Table4(procs []int) ([]Table4Row, error) {
	if len(procs) == 0 {
		procs = []int{32, 64}
	}
	var rows []Table4Row
	for _, np := range procs {
		for _, name := range set1Names() {
			rows = append(rows, Table4Row{Name: name, Procs: np, Paper: PaperTable4[np][name]})
		}
	}
	mechs := core.Mechanisms()
	err := l.runCells(len(rows), len(mechs),
		func(i int) (string, int) { return rows[i].Name, rows[i].Procs },
		func(i, k int) error {
			row := &rows[i]
			res, err := l.RunOne(row.Name, row.Procs, mechs[k], sched.Memory(), nil)
			if err != nil {
				return err
			}
			v := res.MaxPeakMem / 1e6
			imb := stats.Imbalance(res.PeakMem)
			switch mechs[k] {
			case core.MechIncrements:
				row.Measured.Increments = v
				row.Imbalance.Increments = imb
			case core.MechSnapshot:
				row.Measured.Snapshot = v
				row.Imbalance.Snapshot = imb
			case core.MechNaive:
				row.Measured.Naive = v
				row.Imbalance.Naive = imb
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runCells runs a table's cells — n rows of perRow independent simulations
// each — as a two-stage pipeline. One goroutine computes the rows'
// analyses strictly in row order, one at a time: an analysis's scratch
// arrays are the memory peak of a table run, and two at once would stack
// them. Meanwhile min(GOMAXPROCS, cells) workers self-schedule cell
// indices from a shared counter; cell c is (row c/perRow, k c%perRow),
// starts only after its row's analysis is done and writes only its own
// fields of the row. Every cell runs; the error returned is the
// lowest-index one, the error the sequential loop stopped at, and it is
// returned after every goroutine started here has finished.
func (l *Lab) runCells(n, perRow int, key func(i int) (string, int), cell func(i, k int) error) error {
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	errs := make([]error, n*perRow)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ready {
			// A failed analysis is cached; the row's cells report it.
			_, _ = l.analysis(key(i))
			close(ready[i])
		}
	}()
	var next atomic.Int64
	for range min(runtime.GOMAXPROCS(0), len(errs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1) - 1); c < len(errs); c = int(next.Add(1) - 1) {
				<-ready[c/perRow]
				errs[c] = cell(c/perRow, c%perRow)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- Tables 5, 6 and 7 ---------------------------------------------------

// Table567Row carries one matrix/procs cell of Tables 5-7: the same runs
// produce the factorization time (Table 5), the mechanism message counts
// (Table 6) and — re-run with the threaded model — Table 7.
type Table567Row struct {
	Name  string
	Procs int
	// Single-threaded (Tables 5-6).
	Time      TimeRow
	Msgs      MsgRow
	PaperTime TimeRow
	PaperMsgs MsgRow
	// Threaded (Table 7).
	ThreadedTime      TimeRow
	PaperThreadedTime TimeRow
	// Snapshot diagnostics (§4.5 discussion).
	SnapshotOpsTime         float64 // single-threaded, seconds
	ThreadedSnapshotOpsTime float64
	MaxConcurrentSnapshots  int
	// Where the time went, single-threaded (Table 5) and threaded
	// (Table 7).
	Profile, ThreadedProfile ProfileRow
}

// ProfileRow holds one CellProfile per mechanism.
type ProfileRow struct{ Increments, Snapshot CellProfile }

// CellProfile says where one simulated factorization's makespan went:
// the parallel efficiency, and the busiest rank's makespan split into
// compute on the work the static mapping fixed on it, compute on the
// slave shares dynamic decisions assigned it, time blocked and time
// idle, each a fraction of the makespan.
type CellProfile struct {
	// Efficiency is the summed compute over procs × makespan.
	Efficiency float64
	// Busiest is the rank with the most compute (the lowest on a tie).
	Busiest                        int
	Static, Dynamic, Blocked, Idle float64
}

// profileOf reads a CellProfile off a simulator result (only the
// simulator splits each rank's time).
func profileOf(res *solver.Result) CellProfile {
	var c CellProfile
	var compute float64
	for p, t := range res.Compute {
		compute += t
		if t > res.Compute[c.Busiest] {
			c.Busiest = p
		}
	}
	b, f := c.Busiest, res.ExecutedFlops[c.Busiest]
	c.Efficiency = compute / (float64(len(res.Compute)) * res.Time)
	c.Static = res.Compute[b] * res.StaticFlops[b] / f / res.Time
	c.Dynamic = res.Compute[b] * res.SlaveFlops[b] / f / res.Time
	c.Blocked = res.Blocked[b] / res.Time
	c.Idle = res.Idle[b] / res.Time
	return c
}

// Table567 regenerates the workload-strategy comparison on the large set.
func (l *Lab) Table567(procs []int, threaded bool) ([]Table567Row, error) {
	if len(procs) == 0 {
		procs = []int{64, 128}
	}
	var rows []Table567Row
	for _, np := range procs {
		for _, name := range set2Names() {
			rows = append(rows, Table567Row{
				Name: name, Procs: np,
				PaperTime:         PaperTable5[np][name],
				PaperMsgs:         PaperTable6[np][name],
				PaperThreadedTime: PaperTable7[np][name],
			})
		}
	}
	// A row's cells in the sequential order, which the lowest-index error
	// follows: each mechanism single-threaded, then (with threaded) its
	// threaded re-run.
	mechs := []core.Mech{core.MechIncrements, core.MechSnapshot}
	runs := 1
	if threaded {
		runs = 2
	}
	err := l.runCells(len(rows), len(mechs)*runs,
		func(i int) (string, int) { return rows[i].Name, rows[i].Procs },
		func(i, k int) error {
			row, mech, thr := &rows[i], mechs[k/runs], k%runs == 1
			var mutate func(*solver.Params)
			if thr {
				mutate = func(p *solver.Params) { p.Threaded = true }
			}
			res, err := l.RunOne(row.Name, row.Procs, mech, sched.Workload(), mutate)
			if err != nil {
				return err
			}
			switch prof := profileOf(res); {
			case mech == core.MechIncrements && !thr:
				row.Time.Increments = res.Time
				row.Msgs.Increments = res.StateMsgs
				row.Profile.Increments = prof
			case mech == core.MechSnapshot && !thr:
				row.Time.Snapshot = res.Time
				row.Msgs.Snapshot = res.StateMsgs
				row.SnapshotOpsTime = res.SnapshotTime
				row.MaxConcurrentSnapshots = res.MaxConcurrentSnapshots
				row.Profile.Snapshot = prof
			case mech == core.MechIncrements:
				row.ThreadedTime.Increments = res.Time
				row.ThreadedProfile.Increments = prof
			case mech == core.MechSnapshot:
				row.ThreadedTime.Snapshot = res.Time
				row.ThreadedSnapshotOpsTime = res.SnapshotTime
				row.ThreadedProfile.Snapshot = prof
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---- formatting ----------------------------------------------------------

// WriteMatrices prints Tables 1-2.
func WriteMatrices(w io.Writer, rows []MatrixRow) {
	fmt.Fprintf(w, "%-13s %-4s %10s %12s | %10s %12s  %s\n",
		"Matrix", "Type", "paper n", "paper nnz", "gen n", "gen nnz", "Description")
	set := 0
	for _, r := range rows {
		if r.Set != set {
			set = r.Set
			fmt.Fprintf(w, "-- Table %d problems --\n", set)
		}
		fmt.Fprintf(w, "%-13s %-4s %10d %12d | %10d %12d  %s\n",
			r.Name, r.Kind, r.PaperOrder, r.PaperNNZ, r.GenOrder, r.GenNNZ, r.Desc)
	}
}

// WriteTable3 prints the decision counts.
func WriteTable3(w io.Writer, rows []DecisionRow) {
	fmt.Fprintf(w, "%-13s %6s %10s %10s\n", "Matrix", "procs", "measured", "paper")
	for _, r := range rows {
		paper := "-"
		if r.Paper > 0 {
			paper = fmt.Sprintf("%d", r.Paper)
		}
		fmt.Fprintf(w, "%-13s %6d %10d %10s\n", r.Name, r.Procs, r.Measured, paper)
	}
}

// WriteTable4 prints the peak-memory comparison.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "%-13s %5s | %29s | %29s\n", "", "", "measured (10^6 entries)", "paper (10^6 entries)")
	fmt.Fprintf(w, "%-13s %5s | %9s %9s %9s | %9s %9s %9s\n",
		"Matrix", "procs", "incr", "snapshot", "naive", "incr", "snapshot", "naive")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %5d | %9.3f %9.3f %9.3f | %9.2f %9.2f %9.2f\n",
			r.Name, r.Procs,
			r.Measured.Increments, r.Measured.Snapshot, r.Measured.Naive,
			r.Paper.Increments, r.Paper.Snapshot, r.Paper.Naive)
	}
}

// WriteTable5 prints factorization times.
func WriteTable5(w io.Writer, rows []Table567Row) {
	fmt.Fprintf(w, "%-13s %5s | %19s | %19s | %s\n", "", "", "measured time (s)", "paper time (s)", "ratio snap/incr")
	fmt.Fprintf(w, "%-13s %5s | %9s %9s | %9s %9s | %7s %7s\n",
		"Matrix", "procs", "incr", "snapshot", "incr", "snapshot", "meas", "paper")
	for _, r := range rows {
		mr := r.Time.Snapshot / r.Time.Increments
		pr := r.PaperTime.Snapshot / r.PaperTime.Increments
		fmt.Fprintf(w, "%-13s %5d | %9.2f %9.2f | %9.2f %9.2f | %7.2f %7.2f\n",
			r.Name, r.Procs, r.Time.Increments, r.Time.Snapshot,
			r.PaperTime.Increments, r.PaperTime.Snapshot, mr, pr)
	}
	writeProfiles(w, rows, func(r Table567Row) ProfileRow { return r.Profile })
}

// writeProfiles prints, under Table 5 or 7, each cell's parallel
// efficiency and its busiest rank's makespan split.
func writeProfiles(w io.Writer, rows []Table567Row, pick func(Table567Row) ProfileRow) {
	fmt.Fprintln(w, "-- parallel efficiency; the busiest rank's makespan (%): static / dynamic compute, blocked, idle --")
	fmt.Fprintf(w, "%-13s %5s | %-10s %5s | %5s %7s %7s %7s %7s\n",
		"Matrix", "procs", "mech", "eff", "rank", "static", "dynamic", "blocked", "idle")
	for _, r := range rows {
		pr := pick(r)
		for _, c := range []struct {
			mech core.Mech
			p    CellProfile
		}{{core.MechIncrements, pr.Increments}, {core.MechSnapshot, pr.Snapshot}} {
			fmt.Fprintf(w, "%-13s %5d | %-10s %5.3f | %5d %7.1f %7.1f %7.1f %7.1f\n",
				r.Name, r.Procs, c.mech, c.p.Efficiency, c.p.Busiest,
				100*c.p.Static, 100*c.p.Dynamic, 100*c.p.Blocked, 100*c.p.Idle)
		}
	}
}

// WriteTable6 prints mechanism message counts.
func WriteTable6(w io.Writer, rows []Table567Row) {
	fmt.Fprintf(w, "%-13s %5s | %19s | %21s | %s\n", "", "", "measured msgs", "paper msgs", "ratio incr/snap")
	fmt.Fprintf(w, "%-13s %5s | %9s %9s | %10s %10s | %7s %7s\n",
		"Matrix", "procs", "incr", "snapshot", "incr", "snapshot", "meas", "paper")
	for _, r := range rows {
		mr := float64(r.Msgs.Increments) / float64(r.Msgs.Snapshot)
		pr := float64(r.PaperMsgs.Increments) / float64(r.PaperMsgs.Snapshot)
		fmt.Fprintf(w, "%-13s %5d | %9d %9d | %10d %10d | %7.1f %7.1f\n",
			r.Name, r.Procs, r.Msgs.Increments, r.Msgs.Snapshot,
			r.PaperMsgs.Increments, r.PaperMsgs.Snapshot, mr, pr)
	}
}

// WriteTable7 prints the threaded comparison.
func WriteTable7(w io.Writer, rows []Table567Row) {
	fmt.Fprintf(w, "%-13s %5s | %19s | %19s | %s\n", "", "", "measured time (s)", "paper time (s)", "snapshot-ops time (s)")
	fmt.Fprintf(w, "%-13s %5s | %9s %9s | %9s %9s | %10s %10s\n",
		"Matrix", "procs", "incr", "snapshot", "incr", "snapshot", "1-thread", "threaded")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %5d | %9.2f %9.2f | %9.2f %9.2f | %10.2f %10.2f\n",
			r.Name, r.Procs, r.ThreadedTime.Increments, r.ThreadedTime.Snapshot,
			r.PaperThreadedTime.Increments, r.PaperThreadedTime.Snapshot,
			r.SnapshotOpsTime, r.ThreadedSnapshotOpsTime)
	}
	writeProfiles(w, rows, func(r Table567Row) ProfileRow { return r.ThreadedProfile })
}
