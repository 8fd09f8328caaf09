package experiments

// The scenario × mechanism × runtime sweep behind `loadex run`: run
// any subset of the matrix, repeat each cell, aggregate every
// measurement the runtimes' counters expose (messages sent, volume
// exchanged, time spent acquiring coherent views — the paper's table
// axes) with the stats toolkit, and emit paper-shaped markdown tables
// (mechanism rows, per-metric columns).

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Cell is one scenario × mechanism × runtime (× termination protocol ×
// chaos plan) coordinate of the matrix. Term names the termination
// detector that ends the run (empty = the default). Chaos names the
// fault-injection plan (empty or "none" = fault-free).
type Cell struct {
	Scenario string
	Mech     string
	Runtime  string
	Term     string
	Chaos    string
}

// String names the cell the way error messages and logs refer to it.
func (c Cell) String() string {
	s := c.Scenario + " × " + c.Mech + " × " + c.Runtime
	if c.Term != "" {
		s += " × " + c.Term
	}
	if c.Chaos != "" {
		s += " × chaos:" + c.Chaos
	}
	return s
}

// Cells expands the scenario, mechanism, runtime, termination protocol
// and chaos-plan axes into the cell list of their cross product, in
// table order (scenario-major, mechanisms in paper order). Passing no
// terms or plans (or only "") yields the plain matrix.
func Cells(scenarios []string, mechs []core.Mech, runtimes []string, terms, plans []string) []Cell {
	if len(terms) == 0 {
		terms = []string{""}
	}
	if len(plans) == 0 {
		plans = []string{""}
	}
	var cells []Cell
	for _, s := range scenarios {
		for _, m := range mechs {
			for _, r := range runtimes {
				for _, tm := range terms {
					for _, pl := range plans {
						cells = append(cells, Cell{Scenario: s, Mech: string(m), Runtime: r, Term: tm, Chaos: pl})
					}
				}
			}
		}
	}
	return cells
}

// CellRunner executes repetition rep (0-based) of one cell.
type CellRunner func(cell Cell, rep int) (*workload.Report, error)

// CellResult aggregates the repeated runs of one cell: one summary per
// metric over the per-run totals.
type CellResult struct {
	Cell
	Procs   int
	Repeats int
	Metrics map[string]stats.Summary
}

// Metric returns the summary for a named metric (zero Summary when the
// metric was not recorded).
func (r CellResult) Metric(name string) stats.Summary { return r.Metrics[name] }

// CellError is one failed cell of a sweep.
type CellError struct {
	Cell
	Err error
}

func (e CellError) Error() string { return e.Cell.String() + ": " + e.Err.Error() }

// The headline metric names, in report order. Per-kind breakdowns are
// additionally recorded as "msgs[<kind>]" and "bytes[<kind>]".
const (
	MetricDecisions       = "decisions"
	MetricExecuted        = "executed"
	MetricStateMsgs       = "state_msgs"
	MetricStateBytes      = "state_bytes"
	MetricDataMsgs        = "data_msgs"
	MetricDataBytes       = "data_bytes"
	MetricCtrlMsgs        = "ctrl_msgs"
	MetricCtrlBytes       = "ctrl_bytes"
	MetricUpdates         = "updates_sent"
	MetricReservations    = "reservations_sent"
	MetricSnapshots       = "snapshots_initiated"
	MetricRestarts        = "snapshot_restarts"
	MetricSnapshotRounds  = "snapshot_rounds"
	MetricSnapshotTime    = "snapshot_time_s"
	MetricDecisionLatency = "decision_latency_s"
	MetricBusyTime        = "busy_time_s"
	MetricWireMsgs        = "wire_msgs"
	MetricWireBytes       = "wire_bytes"
	MetricElapsed         = "elapsed_s"
	// MetricEventsPerSec is the simulator's fired-event throughput
	// (engine events / wall-clock elapsed; sim cells only).
	MetricEventsPerSec = "events_per_sec"
	// MetricFramesPerSec is the transport's inbound frame throughput
	// (wire messages / wall-clock elapsed; net cells only).
	MetricFramesPerSec = "frames_per_sec"
	// MetricDetectLatency is the gap between the last work completion
	// and the termination detector's broadcast, in application seconds —
	// the per-protocol cost of noticing a finished cluster.
	MetricDetectLatency = "detect_latency_s"
)

// metricsOf flattens one report into named samples.
func metricsOf(rep *workload.Report) map[string]float64 {
	st := rep.TotalStats()
	c := rep.Counters
	m := map[string]float64{
		MetricDecisions:       float64(rep.DecisionsTaken),
		MetricExecuted:        float64(rep.TotalExecuted()),
		MetricStateMsgs:       float64(c.StateMsgs),
		MetricStateBytes:      c.StateBytes,
		MetricDataMsgs:        float64(c.DataMsgs),
		MetricDataBytes:       c.DataBytes,
		MetricCtrlMsgs:        float64(c.CtrlMsgs),
		MetricCtrlBytes:       c.CtrlBytes,
		MetricUpdates:         float64(st.UpdatesSent),
		MetricReservations:    float64(st.ReservationsSent),
		MetricSnapshots:       float64(st.SnapshotsInitiated),
		MetricRestarts:        float64(st.SnapshotRestarts),
		MetricSnapshotRounds:  float64(c.SnapshotRounds),
		MetricSnapshotTime:    st.SnapshotTime,
		MetricDecisionLatency: c.DecisionLatency,
		MetricBusyTime:        c.BusyTime,
		MetricWireMsgs:        float64(rep.WireMsgs),
		MetricWireBytes:       float64(rep.WireBytes),
		MetricElapsed:         rep.Elapsed.Seconds(),
		MetricDetectLatency:   rep.DetectLatency,
	}
	if el := rep.Elapsed.Seconds(); el > 0 {
		if rep.SimEvents > 0 {
			m[MetricEventsPerSec] = float64(rep.SimEvents) / el
		}
		if rep.WireMsgs > 0 {
			m[MetricFramesPerSec] = float64(rep.WireMsgs) / el
		}
	}
	for kind, t := range c.PerKind {
		if t.Msgs > 0 {
			name := core.KindName(kind)
			m["msgs["+name+"]"] = float64(t.Msgs)
			m["bytes["+name+"]"] = t.Bytes
		}
	}
	return m
}

// Aggregate summarizes the repeated reports of one cell. A metric
// absent from some runs (a per-kind tally for a kind that run never
// sent) counts as zero there, not as a missing sample — otherwise an
// intermittent kind's mean would be inflated by only averaging over the
// runs that sent it.
func Aggregate(cell Cell, reps []*workload.Report) CellResult {
	res := CellResult{Cell: cell, Repeats: len(reps), Metrics: map[string]stats.Summary{}}
	perRun := make([]map[string]float64, len(reps))
	names := map[string]bool{}
	for i, rep := range reps {
		res.Procs = rep.Procs
		perRun[i] = metricsOf(rep)
		for name := range perRun[i] {
			names[name] = true
		}
	}
	for name := range names {
		xs := make([]float64, len(reps))
		for i := range reps {
			xs[i] = perRun[i][name] // zero when this run lacks the metric
		}
		res.Metrics[name] = stats.Summarize(xs)
	}
	return res
}

// Sweep runs every cell repeat times through run and aggregates per
// cell. Cells that fail (on any repetition) are skipped in the results
// and reported in failed — the sweep always visits every cell, so one
// broken cell cannot hide the state of the rest of the matrix.
func Sweep(cells []Cell, repeat int, run CellRunner) (results []CellResult, failed []CellError) {
	if repeat < 1 {
		repeat = 1
	}
	for _, cell := range cells {
		var reps []*workload.Report
		var cellErr error
		for i := 0; i < repeat; i++ {
			rep, err := run(cell, i)
			if err != nil {
				cellErr = err
				break
			}
			reps = append(reps, rep)
		}
		if cellErr != nil {
			failed = append(failed, CellError{Cell: cell, Err: cellErr})
			continue
		}
		results = append(results, Aggregate(cell, reps))
	}
	return results, failed
}

// markdownColumns are the paper-shaped table columns: the three
// quantities the paper compares mechanisms by (messages, volume, time
// to a coherent view) plus the mechanism-specific counts that explain
// them.
var markdownColumns = []struct{ header, metric string }{
	{"decisions", MetricDecisions},
	{"executed", MetricExecuted},
	{"state msgs", MetricStateMsgs},
	{"state bytes", MetricStateBytes},
	{"ctrl msgs", MetricCtrlMsgs},
	{"updates", MetricUpdates},
	{"reservations", MetricReservations},
	{"snp rounds", MetricSnapshotRounds},
	{"acquire latency (s)", MetricDecisionLatency},
	{"busy (s)", MetricBusyTime},
	{"events/s", MetricEventsPerSec},
	{"frames/s", MetricFramesPerSec},
	{"detect (s)", MetricDetectLatency},
	{"elapsed (s)", MetricElapsed},
}

// WriteSweepMarkdown writes one paper-shaped table per scenario ×
// runtime group: mechanism rows in the order the paper's tables use,
// per-metric columns, mean over the repeats (with min–max when the runs
// disagree).
func WriteSweepMarkdown(w io.Writer, results []CellResult) {
	type group struct{ scenario, runtime string }
	groups := []group{}
	byGroup := map[group][]CellResult{}
	for _, res := range results {
		g := group{res.Scenario, res.Runtime}
		if _, ok := byGroup[g]; !ok {
			groups = append(groups, g)
		}
		byGroup[g] = append(byGroup[g], res)
	}
	for _, g := range groups {
		cells := byGroup[g]
		slices.SortStableFunc(cells, func(x, y CellResult) int {
			return cmp.Or(
				cmp.Compare(mechOrder(x.Mech), mechOrder(y.Mech)),
				cmp.Compare(x.Term, y.Term),
				cmp.Compare(x.Chaos, y.Chaos))
		})
		fmt.Fprintf(w, "### %s — %s runtime (%d procs, %d run(s) per cell)\n\n",
			g.scenario, g.runtime, cells[0].Procs, cells[0].Repeats)
		headers := make([]string, 0, len(markdownColumns)+1)
		headers = append(headers, "mechanism")
		for _, col := range markdownColumns {
			headers = append(headers, col.header)
		}
		fmt.Fprintln(w, "| "+strings.Join(headers, " | ")+" |")
		fmt.Fprintln(w, "|"+strings.Repeat("---|", len(headers)))
		for _, res := range cells {
			label := res.Mech
			if res.Term != "" {
				label += " × " + res.Term
			}
			if res.Chaos != "" {
				label += " × " + res.Chaos
			}
			row := []string{label}
			for _, col := range markdownColumns {
				row = append(row, formatSummary(res.Metrics[col.metric]))
			}
			fmt.Fprintln(w, "| "+strings.Join(row, " | ")+" |")
		}
		fmt.Fprintln(w)
	}
}

// mechOrder ranks mechanisms in the paper's table order.
func mechOrder(mech string) int {
	for i, m := range core.Mechanisms() {
		if string(m) == mech {
			return i
		}
	}
	return len(core.Mechanisms())
}

// formatSummary renders a metric summary compactly: the mean, plus the
// min–max spread when the repeated runs disagree.
func formatSummary(s stats.Summary) string {
	if s.N == 0 {
		return "-"
	}
	if s.Min == s.Max {
		return formatValue(s.Mean)
	}
	return fmt.Sprintf("%s (%s–%s)", formatValue(s.Mean), formatValue(s.Min), formatValue(s.Max))
}

// formatValue renders a number without trailing noise: integers
// verbatim, small reals with enough precision to compare runs.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
