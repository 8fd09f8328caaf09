package main

// loadex run: the scenario × mechanism × runtime sweep. Every
// registered workload scenario runs unchanged on any runtime with any
// mechanism, and every axis sweeps: "all" fans out -scenario, -mech,
// -runtime and -term, comma-lists fan out -chaos and -topo, and
// -repeat k runs each cell k times:
//
//	loadex run -scenario burst -mech snapshot -runtime sim
//	loadex run -scenario all -mech all -runtime sim -repeat 3
//	loadex run -scenario quickstart -mech all -runtime net -term all
//
// Each cell aggregates its runs' counters (messages, bytes per kind,
// decision latency, busy time, snapshot rounds) into one row of a
// paper-shaped markdown table per scenario × runtime. The sim runtime
// is the deterministic discrete-event simulator, net is localhost TCP
// (one forked OS process per rank, -inproc for goroutine-hosted
// sockets).
//
// Cells that fail do not abort the sweep: every cell is visited, the
// failures are listed at the end, and the exit status is non-zero if
// any cell failed. A recorded sweep (-trace, or a chaos plan, which
// records into a temporary directory) replays every completed run
// through the offline validator and fails on a violated invariant.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	xnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// runtimeNames lists the runtimes `loadex run` can target.
func runtimeNames() []string { return []string{"sim", "net"} }

func runRun(args []string) (retErr error) {
	fs := flag.NewFlagSet("loadex run", flag.ExitOnError)
	var p nodeParams
	p.register(fs)
	var prof profileFlags
	prof.register(fs)
	runtime := fs.String("runtime", "sim", "runtime: "+strings.Join(runtimeNames(), "|")+"|all")
	inproc := fs.Bool("inproc", false, "net runtime: run the nodes in-process (same TCP sockets, no fork)")
	repeat := fs.Int("repeat", 1, "runs per cell (aggregated as mean/min/max)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.masters > p.procs {
		p.masters = p.procs
	}
	if err := p.validate(true); err != nil {
		return err
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}
	runtimes, scenarios, mechs, err := expandAxes(*runtime, &p)
	if err != nil {
		return err
	}
	if p.tele > 0 && (*inproc || !slices.Contains(runtimes, "net")) {
		return fmt.Errorf("-tele: only forked net ranks emit TELE lines, and this sweep has none (-runtime %s, -inproc=%t)",
			*runtime, *inproc)
	}
	// "-term all" fans the termination-protocol axis out (the mechanism ×
	// protocol control-overhead table); -chaos and -topo take comma-lists
	// ("-chaos none,delay" compares fault-free cells against faulted ones,
	// "-topo full,ring,grid2d" measures state traffic per neighbor graph).
	terms := []string{p.term}
	if p.term == "all" {
		terms = termdet.Names()
	}
	plans := strings.Split(p.chaos, ",")
	topos := strings.Split(p.topo, ",")

	// A chaos sweep without -trace still validates: record into a
	// temporary directory so the post-sweep invariant check
	// (conservation, compute completion, quiescence) has traces to replay.
	traceRoot := p.traceDir
	faulted := func(plan string) bool { return plan != "" && plan != "none" }
	if traceRoot == "" && slices.ContainsFunc(plans, faulted) {
		dir, err := os.MkdirTemp("", "loadex-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		traceRoot = dir
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
	// -obs on the sweep serves /healthz and live /debug/pprof for its
	// duration (per-rank /metrics live on `loadex node` and `loadex
	// serve`, which own long-lived nodes to register).
	if p.obsAddr != "" {
		reg := obs.NewRegistry()
		srv, err := obs.ServeHTTP(p.obsAddr, reg.Gather, func() obs.Health {
			return obs.Health{Rank: -1, Procs: p.procs}
		})
		if err != nil {
			return err
		}
		fmt.Printf("OBS %s\n", srv.Addr())
		defer srv.Close()
	}

	var traced []string // trace directories of the runs that completed
	cells := experiments.Cells(scenarios, mechs, runtimes, terms, plans, topos)
	results, failed := experiments.Sweep(cells, *repeat, func(c experiments.Cell, rep int) (*workload.Report, error) {
		q := p
		q.term, q.chaos, q.topo, q.traceDir = c.Term, c.Chaos, c.Topo, ""
		if traceRoot != "" {
			q.traceDir = filepath.Join(traceRoot, cellDirName(c, rep, *repeat))
		}
		r, err := runCell(c.Scenario, core.Mech(c.Mech), c.Runtime, *inproc, &q)
		if err == nil && q.traceDir != "" {
			traced = append(traced, q.traceDir)
		}
		return r, err
	})
	experiments.WriteSweepMarkdown(os.Stdout, results)
	err = failedCellsError(failed)
	if len(traced) > 0 {
		err = errors.Join(err, validateTraceDirs(os.Stdout, traced))
	}
	return err
}

// expandAxes resolves the runtime, scenario and mechanism axes, fanning
// out "all".
func expandAxes(runtime string, p *nodeParams) (runtimes, scenarios []string, mechs []core.Mech, err error) {
	runtimes = []string{runtime}
	if runtime == "all" {
		runtimes = runtimeNames()
	} else if !slices.Contains(runtimeNames(), runtime) {
		return nil, nil, nil, fmt.Errorf("unknown runtime %q (available: %s, all)",
			runtime, strings.Join(runtimeNames(), ", "))
	}
	scenarios = []string{p.scenario}
	if p.scenario == "all" {
		scenarios = workload.Names()
	}
	mechs = []core.Mech{core.Mech(p.mech)}
	if p.mech == "all" {
		mechs = core.Mechanisms()
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

// cellDirName names one run's trace subdirectory by every axis a sweep
// varies, plus the repetition when cells repeat, so no two runs share
// a directory (the validator treats each directory holding *.jsonl
// files as one run).
func cellDirName(c experiments.Cell, rep, repeat int) string {
	plan, topo := c.Chaos, c.Topo
	if plan == "" {
		plan = "none"
	}
	if topo == "" {
		topo = core.TopoFull
	}
	name := strings.Join([]string{c.Scenario, c.Mech, c.Runtime, c.Term, plan, topo}, "-")
	if repeat > 1 {
		name += fmt.Sprintf("-rep%d", rep+1)
	}
	return name
}

// runCell executes one scenario × mechanism × runtime cell, wiring the
// cell's chaos plan into whichever fault layer the runtime carries (the
// simulated network or the TCP fault writer) and — when p.traceDir is
// set — recording the run there for `loadex validate`.
func runCell(scenario string, mech core.Mech, rt string, inproc bool, p *nodeParams) (*workload.Report, error) {
	w, err := workload.Get(scenario)
	if err != nil {
		return nil, err
	}
	q := *p
	q.scenario, q.mech = scenario, string(mech)
	if rt == "net" && !inproc {
		// Forked: one OS process per rank, each hosting one rank of the
		// scenario's application.
		return runCellForked(&q)
	}
	var runner workload.AppRunner
	switch rt {
	case "sim":
		runner = &sim.AppRunner{Network: sim.NetworkConfig{Chaos: q.chaosPlan()}}
	case "net":
		runner = &xnet.AppRunner{Opts: xnet.Options{Chaos: q.chaosPlan()}, Timeout: q.quiesceTimeout()}
	default:
		return nil, fmt.Errorf("unknown runtime %q", rt)
	}
	// Events carry their rank, so one file per in-process run suffices.
	rec, err := q.openRecorder("inproc.jsonl", 0)
	if err != nil {
		return nil, err
	}
	defer rec.Close()
	params := q.params()
	params.Record = rec
	return workload.Run(runner, w, mech, q.config(), params)
}

// runCellForked runs one net cell as forked OS processes, folding the
// per-rank STATS reports into a matrix report.
func runCellForked(p *nodeParams) (*workload.Report, error) {
	start := time.Now()
	stats, err := runClusterForked(p)
	if err != nil {
		return nil, err
	}
	rep := &workload.Report{
		Scenario: p.scenario,
		Runtime:  "net",
		Mech:     core.Mech(p.mech),
		Procs:    p.procs,
		Elapsed:  time.Since(start),
	}
	for _, s := range stats {
		rep.DecisionsTaken += s.Decisions
		rep.Executed = append(rep.Executed, s.Executed)
		rep.Stats = append(rep.Stats, s.Mech)
		rep.Counters.Merge(s.Counters)
		rep.WireMsgs += s.Transport.MsgsIn
		rep.WireBytes += s.Transport.BytesIn
	}
	return rep, nil
}
