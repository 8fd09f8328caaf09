package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestFailedCellsErrorNamesEveryCell(t *testing.T) {
	if err := failedCellsError(nil); err != nil {
		t.Fatalf("no failures must mean nil error, got %v", err)
	}
	failed := []experiments.CellError{
		{Cell: experiments.Cell{Scenario: "burst", Mech: "naive", Runtime: "net"}, Err: errors.New("dial refused")},
		{Cell: experiments.Cell{Scenario: "ramp", Mech: "snapshot", Runtime: "sim"}, Err: errors.New("stalled")},
	}
	err := failedCellsError(failed)
	if err == nil {
		t.Fatal("failures must produce a non-nil error (non-zero exit)")
	}
	for _, want := range []string{"2 cell(s) failed", "burst × naive × net", "dial refused", "ramp × snapshot × sim", "stalled"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

// TestExpandAxesRuntimeListing pins the runtime axis: an unregistered
// name (including the retired "live") fails with the listing error, and
// "all" expands to exactly the registered runtimes.
func TestExpandAxesRuntimeListing(t *testing.T) {
	p := nodeParams{scenario: "quickstart", mech: "naive"}
	for _, name := range []string{"live", "bogus"} {
		_, _, _, err := expandAxes(name, &p)
		want := `unknown runtime "` + name + `" (available: sim, net, all)`
		if err == nil || err.Error() != want {
			t.Fatalf("expandAxes(%q) error %v, want %q", name, err, want)
		}
	}
	runtimes, _, _, err := expandAxes("all", &p)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(runtimes, ","); got != "sim,net" {
		t.Fatalf("all expands to %s, want sim,net", got)
	}
}

// TestExperimentCommandSimSweep runs the real subcommand over the full
// scenario × mechanism matrix on the sim runtime and checks the printed
// markdown holds aggregates for every cell — the acceptance shape of
// `loadex experiment -scenario all -mech all -runtime sim`.
func TestExperimentCommandSimSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tables.md")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	err = runExperiment([]string{
		"-scenario", "all", "-mech", "all", "-runtime", "sim",
		"-repeat", "2", "-procs", "5",
		"-masters", "2", "-decisions", "2", "-work", "40", "-slaves", "2",
		"-spin", "200us",
	})
	os.Stdout = old
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// scenarios (5 program + 3 solver app) × mechanisms (the paper's
	// three plus gossip and diffusion) on one runtime: one table per
	// scenario, one row per mechanism.
	tables, rows, stateCol := 0, 0, -1
	for _, line := range strings.Split(string(md), "\n") {
		switch {
		case strings.HasPrefix(line, "### "):
			tables++
			if !strings.Contains(line, "sim runtime (5 procs, 2 run(s) per cell)") {
				t.Fatalf("table header %q: want 5 procs, 2 runs per cell", line)
			}
		case strings.HasPrefix(line, "| mechanism |"):
			for i, h := range strings.Split(line, "|") {
				if strings.TrimSpace(h) == "state msgs" {
					stateCol = i
				}
			}
		case strings.HasPrefix(line, "| "):
			rows++
			cols := strings.Split(line, "|")
			if stateCol < 0 || stateCol >= len(cols) {
				t.Fatalf("row %q has no state msgs column", line)
			}
			if v := strings.TrimSpace(cols[stateCol]); v == "" || v == "-" || v == "0" {
				t.Fatalf("row %q: no state traffic measured (%q)", line, v)
			}
		}
	}
	if tables != 8 || rows != 8*5 {
		t.Fatalf("printed %d tables with %d rows, want 8 and %d:\n%s", tables, rows, 8*5, md)
	}
}
