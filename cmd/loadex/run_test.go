package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/termdet"
	"repro/internal/workload"
)

func testParams(scenario, mech string) nodeParams {
	return nodeParams{
		procs: 5, scenario: scenario, mech: mech, threshold: 5, noMore: true,
		term: "ds", masters: 2, decisions: 2, work: 60, slaves: 2,
		spin: 100 * time.Microsecond,
	}
}

// TestClusterInProcAllMechanisms runs quickstart under every mechanism
// on the in-process TCP cluster — the `loadex run -runtime net -inproc`
// cell path.
func TestClusterInProcAllMechanisms(t *testing.T) {
	for _, mech := range mechNames() {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			p := testParams("quickstart", mech)
			rep, err := runCell(p.scenario, core.Mech(mech), "net", true, &p)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(p.masters * p.decisions * p.slaves); rep.TotalExecuted() != want {
				t.Fatalf("executed %d, want %d", rep.TotalExecuted(), want)
			}
			if want := p.masters * p.decisions; rep.DecisionsTaken != want {
				t.Fatalf("decisions %d, want %d", rep.DecisionsTaken, want)
			}
			if rep.Counters.CtrlMsgs == 0 {
				t.Fatal("no termination-detection control frames: the detector did not end the run")
			}
		})
	}
}

// TestClusterInProcScenarios smokes the non-default scenarios over real
// in-process TCP under one mechanism each.
func TestClusterInProcScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP scenario sweep")
	}
	for _, tc := range []struct{ scenario, mech string }{
		{"burst", "increments"},
		{"ramp", "naive"},
		{"hetero", "snapshot"},
		{"straggler", "snapshot"},
	} {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			p := testParams(tc.scenario, tc.mech)
			rep, err := runCell(tc.scenario, core.Mech(tc.mech), "net", true, &p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.DecisionsTaken == 0 {
				t.Fatalf("scenario %s took no decisions", tc.scenario)
			}
		})
	}
}

func TestNodeParamsValidate(t *testing.T) {
	good := testParams("quickstart", "snapshot")
	if err := good.validate(false); err != nil {
		t.Fatal(err)
	}
	matrix := testParams("all", "all")
	if err := matrix.validate(true); err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		mutate  func(*nodeParams)
		mention string
	}{
		{func(p *nodeParams) { p.procs = 1 }, "at least 2 processes"},
		{func(p *nodeParams) { p.masters = 0 }, "masters"},
		{func(p *nodeParams) { p.masters = 9 }, "masters"},
		{func(p *nodeParams) { p.slaves = 0 }, "slave"},
		{func(p *nodeParams) { p.decisions = 0 }, "decision"},
		{func(p *nodeParams) { p.mech = "telepathy" }, "unknown mechanism"},
		{func(p *nodeParams) { p.topo = "moebius" }, "unknown topology"},
		{func(p *nodeParams) { p.scenario = "nope" }, "unknown scenario"},
		{func(p *nodeParams) { p.term = "heartbeat" }, "unknown termination protocol"},
	}
	for _, tc := range bad {
		p := testParams("quickstart", "snapshot")
		tc.mutate(&p)
		err := p.validate(false)
		if err == nil {
			t.Fatalf("params %+v validated", p)
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("error %q does not mention %q", err, tc.mention)
		}
	}

	// Unknown-name errors must list the registered names so the usage
	// message is self-updating.
	p := testParams("nope", "snapshot")
	err := p.validate(false)
	if err == nil || !strings.Contains(err.Error(), "quickstart") {
		t.Errorf("unknown-scenario error %v does not list registered scenarios", err)
	}
	p = testParams("quickstart", "telepathy")
	err = p.validate(false)
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("unknown-mechanism error %v does not list registered mechanisms", err)
	}
	p = testParams("quickstart", "snapshot")
	p.topo = "moebius"
	err = p.validate(false)
	if err == nil || !strings.Contains(err.Error(), "ring") {
		t.Errorf("unknown-topology error %v does not list registered topologies", err)
	}
	// The hypercube constrains -n; the builder's error must surface.
	p = testParams("quickstart", "snapshot")
	p.topo = "hypercube" // procs = 5, not a power of two
	if err := p.validate(false); err == nil {
		t.Error("hypercube on 5 ranks validated")
	}
	// An application scenario needs the complete graph.
	p = testParams("solver-wl", "snapshot")
	p.topo = "ring"
	err = p.validate(false)
	if err == nil || !strings.Contains(err.Error(), "full topology") {
		t.Errorf("app scenario on a sparse topology validated: %v", err)
	}
	p.topo = "full"
	if err := p.validate(false); err != nil {
		t.Errorf("app scenario on the full topology rejected: %v", err)
	}
	p = testParams("quickstart", "snapshot")
	p.term = "heartbeat"
	err = p.validate(false)
	for _, name := range termdet.Names() {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-protocol error %v does not list %q", err, name)
		}
	}
	// "all" is matrix-only for -term as well.
	p = testParams("quickstart", "snapshot")
	p.term = "all"
	if err := p.validate(false); err == nil {
		t.Error("-term all validated for a single node")
	}
	if err := p.validate(true); err != nil {
		t.Errorf("-term all rejected for matrix commands: %v", err)
	}
	// "all" is a matrix-only value.
	p = testParams("all", "snapshot")
	if err := p.validate(false); err == nil {
		t.Error("-scenario all validated for a single node")
	}
}

// TestValidateFullTopologyIsCheap: checking -topo full at 8192 ranks must
// not build the complete graph (8192 × 8191 ints, 537 MB) to learn that
// it builds.
func TestValidateFullTopologyIsCheap(t *testing.T) {
	p := testParams("solver-wl", "increments")
	p.procs, p.topo = 8192, core.TopoFull
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.validate(true); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("validate at -procs 8192 -topo full allocated %.1f MB, want < 1 MB", float64(got)/(1<<20))
	}
}

// TestRunRejectsTeleWithoutForkedNet: only forked net ranks emit TELE
// lines, so a sweep with no forked net cell must refuse -tele by name
// instead of accepting it and printing nothing.
func TestRunRejectsTeleWithoutForkedNet(t *testing.T) {
	for _, args := range [][]string{
		{"-tele", "1s", "-runtime", "sim"},
		{"-tele", "1s", "-runtime", "net", "-inproc"},
	} {
		err := runRun(args)
		if err == nil || !strings.Contains(err.Error(), "-tele") || !strings.Contains(err.Error(), "forked net") {
			t.Errorf("run %v: error %v, want a named -tele error", args, err)
		}
	}
}

// TestRunCellSim drives every scenario × mechanism cell through the
// deterministic sim runtime — the `loadex run` hot path without
// sockets.
func TestRunCellSim(t *testing.T) {
	p := testParams("quickstart", "snapshot")
	for _, scenario := range workload.Names() {
		for _, mech := range core.Mechanisms() {
			rep, err := runCell(scenario, mech, "sim", false, &p)
			if err != nil {
				t.Fatalf("%s × %s: %v", scenario, mech, err)
			}
			if rep.DecisionsTaken == 0 || rep.TotalExecuted() == 0 {
				t.Errorf("%s × %s: empty report (%d decisions, %d executed)",
					scenario, mech, rep.DecisionsTaken, rep.TotalExecuted())
			}
			if rep.Runtime != "sim" || rep.Scenario != scenario {
				t.Errorf("%s × %s: mislabeled report %s/%s", scenario, mech, rep.Scenario, rep.Runtime)
			}
		}
	}
}

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

// runCaptured runs `loadex run` with args, returning what it printed.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	runErr := runRun(args)
	os.Stdout = old
	out.Close()
	printed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// TestRunCommandSimSweep runs the real subcommand over the full
// scenario × mechanism matrix on the sim runtime and checks the printed
// markdown holds aggregates for every cell — the acceptance shape of
// `loadex run -scenario all -mech all -runtime sim -repeat 2`.
func TestRunCommandSimSweep(t *testing.T) {
	md, err := runCaptured(t,
		"-scenario", "all", "-mech", "all", "-runtime", "sim",
		"-repeat", "2", "-procs", "5",
		"-masters", "2", "-decisions", "2", "-work", "40", "-slaves", "2",
		"-spin", "200us",
	)
	if err != nil {
		t.Fatal(err)
	}
	// scenarios (5 program + 3 solver app) × the paper's three
	// mechanisms on one runtime: one table per scenario, one row per
	// mechanism.
	tables, rows := 0, 0
	col := map[string]int{}
	for _, line := range strings.Split(md, "\n") {
		switch {
		case strings.HasPrefix(line, "### "):
			tables++
			if !strings.Contains(line, "sim runtime (5 procs, 2 run(s) per cell)") {
				t.Fatalf("table header %q: want 5 procs, 2 runs per cell", line)
			}
		case strings.HasPrefix(line, "| mechanism |"):
			for i, h := range strings.Split(line, "|") {
				col[strings.TrimSpace(h)] = i
			}
		case strings.HasPrefix(line, "| "):
			rows++
			cols := strings.Split(line, "|")
			for _, name := range []string{"state msgs", "executed"} {
				i, ok := col[name]
				if !ok || i >= len(cols) {
					t.Fatalf("row %q has no %s column", line, name)
				}
				if v := strings.TrimSpace(cols[i]); v == "" || v == "-" || v == "0" {
					t.Fatalf("row %q: no %s measured (%q)", line, name, v)
				}
			}
		}
	}
	if tables != 8 || rows != 8*3 {
		t.Fatalf("printed %d tables with %d rows, want 8 and %d:\n%s", tables, rows, 8*3, md)
	}
}

// TestRunTraceDirsPerCell: every run of a recorded sweep gets its own
// trace directory, named by every swept axis — two chaos plans on one
// scenario × mechanism × runtime must not share (and so corrupt) one
// directory — and each directory validates.
func TestRunTraceDirsPerCell(t *testing.T) {
	root := t.TempDir()
	if _, err := runCaptured(t,
		"-scenario", "quickstart", "-mech", "snapshot", "-runtime", "sim",
		"-chaos", "none,delay", "-trace", root,
	); err != nil {
		t.Fatal(err)
	}
	dirs, err := chaos.TraceDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range dirs {
		names = append(names, filepath.Base(d))
	}
	want := "quickstart-snapshot-sim-ds-delay-full,quickstart-snapshot-sim-ds-none-full"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("trace dirs %s, want %s", got, want)
	}
	for _, d := range dirs {
		if err := validateTraceDirs(io.Discard, []string{d}); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
}

// TestUsageErrorsExit2: the retired commands and flags are usage
// errors — exit status 2 with the usage text or the flag package's
// standard message — not a run-time failure (exit 1).
func TestUsageErrorsExit2(t *testing.T) {
	exe := buildLoadex(t)
	for _, tc := range []struct {
		args    []string
		mention string
	}{
		{[]string{"cluster"}, "usage: loadex"},
		{[]string{"experiment", "-repeat", "2"}, "usage: loadex"},
		{[]string{"bogus"}, "usage: loadex"},
		{[]string{"run", "-n", "4"}, "flag provided but not defined: -n"},
		{[]string{"run", "-stats-timeout", "1s"}, "flag provided but not defined: -stats-timeout"},
	} {
		out, err := exec.Command(exe, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("loadex %v: %v, want exit status 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.mention) {
			t.Errorf("loadex %v: output does not mention %q:\n%s", tc.args, tc.mention, out)
		}
	}
}
