package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simRunner executes cells on the deterministic simulator.
func simRunner(t *testing.T) CellRunner {
	t.Helper()
	p := workload.Params{Procs: 4, Masters: 2, Decisions: 2, Work: 30, Slaves: 2, Spin: time.Millisecond}
	cfg := core.Config{Threshold: core.Load{core.Workload: 5}, NoMoreMasterOpt: true}
	return func(c Cell, _ int) (*workload.Report, error) {
		w, err := workload.Get(c.Scenario)
		if err != nil {
			return nil, err
		}
		return workload.Run(&sim.AppRunner{}, w, core.Mech(c.Mech), cfg, p)
	}
}

func TestSweepAggregatesDeterministicCells(t *testing.T) {
	cells := Cells([]string{"quickstart"}, core.Mechanisms(), []string{"sim"}, nil, nil)
	if len(cells) != 3 {
		t.Fatalf("expanded %d cells, want 3", len(cells))
	}
	results, failed := Sweep(cells, 3, simRunner(t))
	if len(failed) != 0 {
		t.Fatalf("failed cells: %v", failed)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, res := range results {
		if res.Repeats != 3 || res.Procs != 4 {
			t.Fatalf("%s: repeats=%d procs=%d", res.Cell, res.Repeats, res.Procs)
		}
		dec := res.Metric(MetricDecisions)
		if dec.N != 3 || dec.Mean != 4 {
			t.Fatalf("%s: decisions summary %+v, want N=3 mean=4", res.Cell, dec)
		}
		// The simulator is deterministic: repeated runs must agree on
		// every message metric (elapsed wall time may differ).
		for _, name := range []string{MetricStateMsgs, MetricStateBytes, MetricUpdates, MetricSnapshotRounds} {
			if s := res.Metric(name); s.Min != s.Max {
				t.Fatalf("%s: %s not deterministic: %+v", res.Cell, name, s)
			}
		}
		if s := res.Metric(MetricStateMsgs); s.Mean <= 0 {
			t.Fatalf("%s: no state messages recorded", res.Cell)
		}
	}
}

func TestSweepVisitsEveryCellPastFailures(t *testing.T) {
	boom := errors.New("boom")
	var visited []string
	cells := []Cell{
		{Scenario: "a", Mech: "m", Runtime: "sim"},
		{Scenario: "b", Mech: "m", Runtime: "sim"},
		{Scenario: "c", Mech: "m", Runtime: "sim"},
	}
	run := func(c Cell, _ int) (*workload.Report, error) {
		visited = append(visited, c.Scenario)
		if c.Scenario == "b" {
			return nil, boom
		}
		return &workload.Report{Procs: 2}, nil
	}
	results, failed := Sweep(cells, 1, run)
	if len(visited) != 3 {
		t.Fatalf("visited %v: a failing cell must not abort the sweep", visited)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if len(failed) != 1 || failed[0].Scenario != "b" || !errors.Is(failed[0].Err, boom) {
		t.Fatalf("failed = %v, want exactly cell b with the original error", failed)
	}
	if msg := failed[0].Error(); !strings.Contains(msg, "b × m × sim") {
		t.Fatalf("failure must name the cell, got %q", msg)
	}
}

func TestAggregateZeroFillsIntermittentMetrics(t *testing.T) {
	// A per-kind tally present in one run but absent in another must
	// average as [2, 0], not [2]: intermittent kinds would otherwise
	// report inflated means in the sweep tables.
	withKind := &workload.Report{Procs: 2}
	withKind.Counters.AddState(core.KindNoMoreMaster, core.BytesNoMoreMaster)
	withKind.Counters.AddState(core.KindNoMoreMaster, core.BytesNoMoreMaster)
	withoutKind := &workload.Report{Procs: 2}
	res := Aggregate(Cell{Scenario: "s", Mech: "m", Runtime: "r"}, []*workload.Report{withKind, withoutKind})
	s := res.Metric("msgs[no_more_master]")
	if s.N != 2 || s.Mean != 1 || s.Min != 0 || s.Max != 2 {
		t.Fatalf("intermittent kind summary %+v, want N=2 mean=1 min=0 max=2", s)
	}
}

func TestSweepMarkdownShape(t *testing.T) {
	results, failed := Sweep(Cells([]string{"quickstart"}, core.Mechanisms(), []string{"sim"}, nil, nil), 1, simRunner(t))
	if len(failed) != 0 {
		t.Fatalf("failed cells: %v", failed)
	}
	var buf bytes.Buffer
	WriteSweepMarkdown(&buf, results)
	out := buf.String()
	if !strings.Contains(out, "### quickstart — sim runtime") {
		t.Fatalf("missing group header:\n%s", out)
	}
	// Mechanism rows in the paper's table order.
	order := []string{"| increments |", "| snapshot |", "| naive |"}
	last := -1
	for _, row := range order {
		i := strings.Index(out, row)
		if i < 0 {
			t.Fatalf("missing row %q:\n%s", row, out)
		}
		if i < last {
			t.Fatalf("rows out of paper order:\n%s", out)
		}
		last = i
	}
}
