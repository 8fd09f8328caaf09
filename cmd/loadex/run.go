package main

// loadex run: the scenario × mechanism × runtime matrix. Every
// registered workload scenario runs unchanged on any runtime with any
// mechanism:
//
//	loadex run -scenario burst -mech snapshot -runtime sim
//	loadex run -scenario all -mech all -runtime net -inproc
//	loadex run -scenario all -mech all -runtime all
//
// Each cell prints one row of message/selection statistics. The sim
// runtime is the deterministic discrete-event simulator, net is
// localhost TCP (forked OS processes by default, -inproc for
// goroutine-hosted sockets).

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	xnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sim"
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
	procs := fs.Int("procs", 0, "number of processes (alias for -n)")
	runtime := fs.String("runtime", "sim", "runtime: "+strings.Join(runtimeNames(), "|")+"|all")
	inproc := fs.Bool("inproc", false, "net runtime: run the nodes in-process (same TCP sockets, no fork)")
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
	if err := p.singleTerm("loadex run"); err != nil {
		return err
	}
	if err := p.singleChaos("loadex run"); err != nil {
		return err
	}
	if err := p.singleTopo("loadex run"); err != nil {
		return err
	}
	runtimes, scenarios, mechs, err := expandAxes(*runtime, &p)
	if err != nil {
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
	// -obs on the matrix runner serves /healthz and live /debug/pprof for
	// the sweep's duration (per-rank /metrics live on `loadex node` and
	// `loadex serve`, which own long-lived nodes to register).
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

	// Visit every cell even when one fails: an `all` sweep must report
	// which cells broke, not abort on (or worse, report only) the last
	// one, and must exit non-zero if any did.
	var failed []experiments.CellError
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tmech\truntime\tprocs\tdecisions\texecuted\tupdates\treservations\tsnapshots\trestarts\twire_msgs\twire_bytes\telapsed")
	for _, scenario := range scenarios {
		for _, mech := range mechs {
			for _, rt := range runtimes {
				rep, err := runCell(scenario, mech, rt, *inproc, &p)
				if err != nil {
					cell := experiments.Cell{Scenario: scenario, Mech: string(mech), Runtime: rt}
					failed = append(failed, experiments.CellError{Cell: cell, Err: err})
					fmt.Fprintf(tw, "%s\t%s\t%s\tFAILED: %v\n", scenario, mech, rt, err)
					continue
				}
				writeRunRow(tw, rep)
			}
		}
	}
	tw.Flush()
	return failedCellsError(failed)
}

func isRuntime(name string) bool {
	for _, r := range runtimeNames() {
		if r == name {
			return true
		}
	}
	return false
}

// runCell executes one scenario × mechanism × runtime cell, wiring the
// cell's chaos plan into whichever fault layer the runtime carries (the
// simulated network or the TCP fault writer) and — when tracing —
// recording the run for `loadex validate`.
func runCell(scenario string, mech core.Mech, rt string, inproc bool, p *nodeParams) (*workload.Report, error) {
	w, err := workload.Get(scenario)
	if err != nil {
		return nil, err
	}
	if rt == "net" && !inproc {
		// Forked: one OS process per rank, each hosting one rank of the
		// scenario's application.
		return runCellForked(scenario, mech, p)
	}
	plan := p.chaosPlan()
	var runner workload.AppRunner
	switch rt {
	case "sim":
		runner = &sim.AppRunner{Network: sim.NetworkConfig{Chaos: plan}}
	case "net":
		runner = &xnet.AppRunner{Opts: xnet.Options{Chaos: plan}, Timeout: p.quiesceTimeout()}
	default:
		return nil, fmt.Errorf("unknown runtime %q", rt)
	}
	params := p.params()
	if p.traceDir != "" {
		q := *p
		q.scenario, q.mech = scenario, string(mech)
		q.traceDir = filepath.Join(p.traceDir, cellDirName(scenario, string(mech), rt, p.term))
		rec, err := q.openInProcRecorder()
		if err != nil {
			return nil, err
		}
		defer rec.Close()
		params.Record = rec
	}
	return workload.Run(runner, w, mech, p.config(), params)
}

// cellDirName names one cell's trace subdirectory (the validator
// treats each directory holding *.jsonl files as one run).
func cellDirName(scenario, mech, rt, term string) string {
	name := scenario + "-" + mech + "-" + rt
	if term != "" && term != "all" {
		name += "-" + term
	}
	return name
}

// runCellForked runs one net cell as forked OS processes, folding the
// per-rank STATS reports into a matrix report.
func runCellForked(scenario string, mech core.Mech, p *nodeParams) (*workload.Report, error) {
	q := *p
	q.scenario, q.mech = scenario, string(mech)
	if p.traceDir != "" {
		q.traceDir = filepath.Join(p.traceDir, cellDirName(scenario, string(mech), "net", p.term))
	}
	start := time.Now()
	stats, err := runClusterForked(&q)
	if err != nil {
		return nil, err
	}
	rep := &workload.Report{
		Scenario: scenario,
		Runtime:  "net",
		Mech:     mech,
		Procs:    q.procs,
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

// writeRunRow prints one matrix cell.
func writeRunRow(tw *tabwriter.Writer, rep *workload.Report) {
	st := rep.TotalStats()
	fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
		rep.Scenario, rep.Mech, rep.Runtime, rep.Procs,
		rep.DecisionsTaken, rep.TotalExecuted(),
		st.UpdatesSent, st.ReservationsSent,
		st.SnapshotsInitiated, st.SnapshotRestarts,
		rep.WireMsgs, rep.WireBytes,
		rep.Elapsed.Round(time.Millisecond))
}
