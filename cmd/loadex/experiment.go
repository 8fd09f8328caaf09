package main

// loadex experiment: the measured version of `loadex run`. It sweeps
// any subset of the scenario × mechanism × runtime matrix, repeats each
// cell, aggregates the per-cell counters (messages, bytes per kind,
// decision latency, busy time, snapshot rounds) and emits paper-shaped
// markdown tables:
//
//	loadex experiment -scenario all -mech all -runtime sim -repeat 3
//	loadex experiment -scenario burst -mech all -runtime net -inproc
//
// Cells that fail do not abort the sweep: every cell is visited, the
// failures are listed at the end, and the exit status is non-zero if
// any cell failed.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/termdet"
	"repro/internal/workload"
)

func runExperiment(args []string) (retErr error) {
	fs := flag.NewFlagSet("loadex experiment", flag.ExitOnError)
	var p nodeParams
	p.register(fs)
	var prof profileFlags
	prof.register(fs)
	procs := fs.Int("procs", 0, "number of processes (alias for -n)")
	runtime := fs.String("runtime", "sim", "runtime: "+strings.Join(runtimeNames(), "|")+"|all")
	inproc := fs.Bool("inproc", true, "net runtime: run the nodes in-process (same TCP sockets, no fork; default true here — unlike `loadex run` — so repeated cells stay cheap; -inproc=false forks one OS process per rank)")
	repeat := fs.Int("repeat", 1, "runs per cell (aggregated as mean/min/max)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *procs > 0 {
		p.procs = *procs
	}
	if p.masters > p.procs {
		p.masters = p.procs
	}
	if err := p.validate(true); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}
	runtimes, scenarios, mechs, err := expandAxes(*runtime, &p)
	if err != nil {
		return err
	}
	// "-term all" fans the termination-protocol axis out, producing the
	// mechanism × protocol control-overhead table.
	terms := []string{p.term}
	if p.term == "all" {
		terms = termdet.Names()
	}
	// The chaos axis is a comma-list of plan names ("-chaos
	// none,delay,crash" compares the fault-free cells against the
	// faulted ones); a single name pins every cell to that plan. The
	// topology axis works the same way ("-topo full,ring,grid2d"
	// measures state traffic per neighbor graph).
	plans := strings.Split(p.chaos, ",")
	topos := strings.Split(p.topo, ",")

	cells := experiments.Cells(scenarios, mechs, runtimes, terms, plans, topos)
	results, failed := experiments.Sweep(cells, *repeat, func(c experiments.Cell) (*workload.Report, error) {
		q := p
		if c.Term != "" {
			q.term = c.Term
		} else if q.term == "all" {
			q.term = termdet.Default
		}
		q.chaos = c.Chaos
		q.topo = c.Topo
		if q.topo == "" {
			q.topo = core.TopoFull
		}
		return runCell(c.Scenario, core.Mech(c.Mech), c.Runtime, *inproc, &q)
	}, nil)

	experiments.WriteSweepMarkdown(os.Stdout, results)
	return failedCellsError(failed)
}

// expandAxes resolves the three matrix axes, fanning out "all".
func expandAxes(runtime string, p *nodeParams) (runtimes, scenarios []string, mechs []core.Mech, err error) {
	runtimes = []string{runtime}
	if runtime == "all" {
		runtimes = runtimeNames()
	} else if !isRuntime(runtime) {
		return nil, nil, nil, fmt.Errorf("unknown runtime %q (available: %s, all)",
			runtime, strings.Join(runtimeNames(), ", "))
	}
	scenarios = []string{p.scenario}
	if p.scenario == "all" {
		scenarios = workload.Names()
	}
	mechs = []core.Mech{core.Mech(p.mech)}
	if p.mech == "all" {
		mechs = core.AllMechanisms()
	}
	return runtimes, scenarios, mechs, nil
}

// failedCellsError folds a sweep's failures into one error naming every
// failed cell, or nil — `all` sweeps must not let one broken cell mask
// the rest, and must still exit non-zero.
func failedCellsError(failed []experiments.CellError) error {
	if len(failed) == 0 {
		return nil
	}
	lines := make([]string, 0, len(failed))
	for _, f := range failed {
		lines = append(lines, "  "+f.Error())
	}
	return fmt.Errorf("%d cell(s) failed:\n%s", len(failed), strings.Join(lines, "\n"))
}
