package main

// loadex cluster: run a registered workload scenario over a real
// localhost TCP cluster and report per-rank message and selection
// statistics.
//
// By default the command forks one `loadex node` process per rank (the
// binary re-executes itself), wires them through the ADDR/PEERS stdio
// handshake and aggregates each node's STATS line. With -inproc the
// same nodes run as goroutines inside this process — same sockets, no
// fork — which is what CI uses. Application scenarios (the solver) fork
// too: each process hosts one rank of the application and quiescence is
// decided by the distributed termination detector (-term). The scenario
// × mechanism × runtime matrix lives in `loadex run`; cluster is the
// per-rank TCP view of one scenario.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/workload"
)

func runCluster(args []string) error {
	fs := flag.NewFlagSet("loadex cluster", flag.ExitOnError)
	var p nodeParams
	p.register(fs)
	procs := fs.Int("procs", 0, "number of processes (alias for -n)")
	inproc := fs.Bool("inproc", false, "run the nodes in-process (same TCP sockets, no fork)")
	fs.DurationVar(&p.statsTimeout, "stats-timeout", defaultStatsTimeout,
		"forked clusters: watchdog slack for stats collection — the ADDR-phase deadline, and the padding added to -timeout + -settle for the STATS phase (raise on heavily loaded machines)")
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
	if err := p.singleTerm("loadex cluster"); err != nil {
		return err
	}
	if err := p.singleChaos("loadex cluster"); err != nil {
		return err
	}
	if err := p.singleTopo("loadex cluster"); err != nil {
		return err
	}
	mechs := []string{p.mech}
	if p.mech == "all" {
		mechs = mechNames()
	}
	scenarios := []string{p.scenario}
	if p.scenario == "all" {
		scenarios = scenarios[:0]
		for _, name := range workload.Names() {
			// Application scenarios run forked like any other (one app
			// instance per OS process, detector-driven quiescence), but
			// have no per-rank program for the in-process driver here;
			// `loadex run -runtime net -inproc` hosts those.
			if *inproc && workload.IsAppScenario(name) {
				continue
			}
			scenarios = append(scenarios, name)
		}
	} else if *inproc && workload.IsAppScenario(p.scenario) {
		return fmt.Errorf("scenario %q is an application scenario; drop -inproc to fork it (one process per rank, detector-driven quiescence) or host it in-process with `loadex run -scenario %s -runtime net -inproc`", p.scenario, p.scenario)
	}
	// A chaos run without -trace still validates: record into a
	// temporary directory so the post-run invariant check (conservation,
	// compute completion, quiescence) has traces to replay.
	validateAfter := p.traceDir != ""
	if p.chaos != "" && p.chaos != "none" && p.traceDir == "" {
		dir, err := os.MkdirTemp("", "loadex-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		p.traceDir = dir
		validateAfter = true
	}
	for _, scenario := range scenarios {
		for _, mech := range mechs {
			q := p
			q.scenario, q.mech = scenario, mech
			if p.traceDir != "" {
				// One subdirectory per cell: the validator treats each
				// directory holding *.jsonl files as one run.
				q.traceDir = filepath.Join(p.traceDir, scenario+"-"+mech)
			}
			var (
				stats []nodeStats
				err   error
			)
			if *inproc {
				stats, err = runClusterInProc(&q)
			} else {
				stats, err = runClusterForked(&q)
			}
			if err != nil {
				return fmt.Errorf("scenario %s, mechanism %s: %w", scenario, mech, err)
			}
			writeClusterReport(os.Stdout, &q, *inproc, stats)
		}
	}
	if validateAfter {
		return validateTraceRoot(os.Stdout, p.traceDir)
	}
	return nil
}

// runClusterInProc compiles the scenario and drives it on an in-process
// TCP cluster, keeping the per-rank transport counters the report
// needs.
func runClusterInProc(p *nodeParams) ([]nodeStats, error) {
	progs, err := p.programs()
	if err != nil {
		return nil, err
	}
	rec, err := p.openInProcRecorder()
	if err != nil {
		return nil, err
	}
	defer rec.Close()
	mech := core.Mech(p.mech)
	cl, err := xnet.NewCluster(len(progs), mech, p.config(),
		xnet.ProgramOptions(xnet.Options{Chaos: p.chaosPlan(), Rec: rec}, progs))
	if err != nil {
		return nil, err
	}
	defer cl.Stop()
	rep, err := workload.DriveCluster(cl, mech, progs, p.driveOptions())
	if err != nil {
		return nil, err
	}
	for r, ex := range rep.Executed {
		rec.Record(chaos.Event{Ev: chaos.EvFinal, Rank: r, Executed: ex})
	}
	stats := make([]nodeStats, len(progs))
	for r := range stats {
		stats[r] = nodeStats{
			Rank:      r,
			Executed:  rep.Executed[r],
			Mech:      rep.Stats[r],
			Transport: cl.Transport(r),
		}
	}
	for _, rec := range rep.Records {
		stats[rec.Master].Decisions++
	}
	return stats, nil
}

// runClusterForked forks one `loadex node` per rank (re-executing this
// binary) and shepherds the stdio handshake.
func runClusterForked(p *nodeParams) ([]nodeStats, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return runClusterForkedWith(exe, p)
}

// childEvent is one observation a forked node's reader goroutine posts
// to the parent: a protocol line (ADDR/STATS payload) or the process's
// exit.
type childEvent struct {
	rank    int
	kind    string // "addr", "stats", "exit"
	payload string
	err     error // exit status, for "exit" events
}

// defaultStatsTimeout is the watchdog slack when -stats-timeout is
// unset: it bounds the fork-to-ADDR phase on its own (every child only
// has to bind one localhost socket and print a line, so a child silent
// for this long is wedged, not slow) and pads the STATS deadline on top
// of the quiescence and settle budgets.
const defaultStatsTimeout = 30 * time.Second

// runClusterForkedWith is runClusterForked against an explicit loadex
// binary (tests build one: the test binary cannot re-execute itself as
// `loadex node`).
//
// The parent acts as a watchdog: one reader goroutine per child feeds
// ADDR/STATS lines and the child's exit into a shared event channel,
// and each collection phase selects against a deadline. A child that
// dies early (a chaos crash plan, an OOM kill, a panic) is therefore
// reported by rank with its exit status instead of deadlocking the
// parent on a pipe that will never produce the next line.
func runClusterForkedWith(exe string, p *nodeParams) ([]nodeStats, error) {
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	children := make([]*child, p.procs)
	defer func() {
		for _, c := range children {
			if c != nil {
				c.stdin.Close()
				c.cmd.Process.Kill()
				// The reader goroutine owns cmd.Wait; killing the process
				// ends its stdout stream and unblocks it.
			}
		}
	}()
	events := make(chan childEvent, 4*p.procs)
	for r := 0; r < p.procs; r++ {
		args := []string{"node",
			"-rank", strconv.Itoa(r),
			"-n", strconv.Itoa(p.procs),
			"-scenario", p.scenario,
			"-mech", p.mech,
			"-threshold", fmt.Sprint(p.threshold),
			"-nomore=" + strconv.FormatBool(p.noMore),
			"-term", p.term,
			"-masters", strconv.Itoa(p.masters),
			"-decisions", strconv.Itoa(p.decisions),
			"-work", fmt.Sprint(p.work),
			"-slaves", strconv.Itoa(p.slaves),
			"-spin", p.spin.String(),
			"-settle", p.settle.String(),
			"-timeout", p.quiesceTimeout().String(),
		}
		if p.chaos != "" {
			args = append(args, "-chaos", p.chaos)
		}
		if p.topo != "" {
			args = append(args, "-topo", p.topo)
		}
		if p.traceDir != "" {
			args = append(args, "-trace", p.traceDir)
		}
		if p.tele > 0 {
			args = append(args, "-tele", p.tele.String())
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("forking node %d: %w", r, err)
		}
		children[r] = &child{cmd: cmd, stdin: stdin}
		go readChild(r, cmd, stdout, events)
	}

	// Phase 1: collect every node's bound address. A node that dies
	// here — before the mesh even exists — is fatal regardless of its
	// exit status: the cluster can never complete one rank short.
	addrs := make([]string, p.procs)
	gotAddr := make([]bool, p.procs)
	addrDeadline := time.Now().Add(p.watchdogSlack())
	for have := 0; have < p.procs; {
		ev, err := nextEvent(events, addrDeadline, "ADDR", missing(gotAddr))
		if err != nil {
			return nil, err
		}
		switch ev.kind {
		case "addr":
			fields := strings.Fields(ev.payload)
			if len(fields) != 2 || fields[0] != strconv.Itoa(ev.rank) {
				return nil, fmt.Errorf("node %d: malformed address line %q", ev.rank, ev.payload)
			}
			addrs[ev.rank] = fields[1]
			if !gotAddr[ev.rank] {
				gotAddr[ev.rank] = true
				have++
			}
		case "exit":
			return nil, fmt.Errorf("node %d died before binding (%s); %d/%d ranks bound",
				ev.rank, exitStatus(ev.err), have, p.procs)
		}
	}
	// Phase 2: broadcast the full list.
	peers := "PEERS " + strings.Join(addrs, ",") + "\n"
	for r, c := range children {
		if _, err := io.WriteString(c.stdin, peers); err != nil {
			return nil, fmt.Errorf("node %d: %w", r, err)
		}
	}
	// Phase 3: gather each node's report and reap its exit. The
	// deadline covers the per-node quiescence budget plus handshake and
	// settle slack. A rank exiting cleanly after its STATS is the normal
	// shutdown; exiting with an error, or before its STATS line, kills
	// the run naming the rank — one dead process means the survivors
	// would wait out their full quiescence timeout for a detector that
	// can never conclude.
	stats := make([]nodeStats, p.procs)
	gotStats := make([]bool, p.procs)
	deadline := time.Now().Add(p.quiesceTimeout() + p.settle + p.watchdogSlack())
	for have, exited := 0, 0; have < p.procs || exited < p.procs; {
		ev, err := nextEvent(events, deadline, "STATS", missing(gotStats))
		if err != nil {
			return nil, err
		}
		switch ev.kind {
		case "stats":
			if err := json.Unmarshal([]byte(ev.payload), &stats[ev.rank]); err != nil {
				return nil, fmt.Errorf("node %d: bad stats line: %w", ev.rank, err)
			}
			if !gotStats[ev.rank] {
				gotStats[ev.rank] = true
				have++
			}
		case "exit":
			if ev.err != nil {
				return nil, fmt.Errorf("node %d died before quiescence (%s); %d/%d ranks reported stats",
					ev.rank, exitStatus(ev.err), have, p.procs)
			}
			if !gotStats[ev.rank] {
				return nil, fmt.Errorf("node %d exited without reporting stats; %d/%d ranks reported",
					ev.rank, have, p.procs)
			}
			children[ev.rank] = nil // reaped by its reader goroutine
			exited++
		}
	}
	return stats, nil
}

// missing lists the ranks whose report is still outstanding.
func missing(got []bool) []int {
	var m []int
	for r, ok := range got {
		if !ok {
			m = append(m, r)
		}
	}
	return m
}

// exitStatus renders a child's exit for the watchdog messages.
func exitStatus(err error) string {
	if err == nil {
		return "exited cleanly"
	}
	return err.Error()
}

// readChild is the per-child reader goroutine: protocol lines become
// events, everything else passes through to stderr (node diagnostics),
// and the child's exit — expected or not — is always posted so the
// parent's phase loops can attribute a dead pipe to its rank.
func readChild(rank int, cmd *exec.Cmd, stdout io.Reader, events chan<- childEvent) {
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "ADDR "); ok {
			events <- childEvent{rank: rank, kind: "addr", payload: rest}
		} else if rest, ok := strings.CutPrefix(line, "STATS "); ok {
			events <- childEvent{rank: rank, kind: "stats", payload: rest}
		} else if rest, ok := strings.CutPrefix(line, "TELE "); ok {
			printTele(rank, rest)
		} else {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	events <- childEvent{rank: rank, kind: "exit", err: cmd.Wait()}
}

// nextEvent waits for one child event or the phase deadline, whichever
// comes first.
func nextEvent(events <-chan childEvent, deadline time.Time, want string, missing []int) (childEvent, error) {
	wait := time.Until(deadline)
	if wait <= 0 {
		wait = 0
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case ev := <-events:
		return ev, nil
	case <-t.C:
		return childEvent{}, fmt.Errorf("timed out waiting for %s from rank(s) %v", want, missing)
	}
}

// writeClusterReport prints the per-rank table the paper-style
// experiments report: selections, mechanism messages, wire traffic.
func writeClusterReport(w io.Writer, p *nodeParams, inproc bool, stats []nodeStats) {
	mode := "forked processes"
	if inproc {
		mode = "in-process"
	}
	topo := p.topo
	if topo == "" {
		topo = core.TopoFull
	}
	fmt.Fprintf(w, "== scenario %s × mechanism %s — %d procs over localhost TCP, topology %s (%s) ==\n",
		p.scenario, p.mech, p.procs, topo, mode)
	fmt.Fprintf(w, "base workload: %d masters × %d decisions × %g work units over %d least-loaded slaves (spin %s)\n",
		p.masters, p.decisions, p.work, p.slaves, p.spin)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\texecuted\tdecisions\tupdates\treservations\tsnapshots\trestarts\tstate_in\tmsgs_in\tmsgs_out\tbytes_in\tbytes_out")
	var tot nodeStats
	for _, s := range stats {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			s.Rank, s.Executed, s.Decisions,
			s.Mech.UpdatesSent, s.Mech.ReservationsSent,
			s.Mech.SnapshotsInitiated, s.Mech.SnapshotRestarts,
			s.Transport.StateIn, s.Transport.MsgsIn, s.Transport.MsgsOut,
			s.Transport.BytesIn, s.Transport.BytesOut)
		tot.Executed += s.Executed
		tot.Decisions += s.Decisions
		tot.Mech.UpdatesSent += s.Mech.UpdatesSent
		tot.Mech.ReservationsSent += s.Mech.ReservationsSent
		tot.Mech.SnapshotsInitiated += s.Mech.SnapshotsInitiated
		tot.Mech.SnapshotRestarts += s.Mech.SnapshotRestarts
		tot.Transport.StateIn += s.Transport.StateIn
		tot.Transport.MsgsIn += s.Transport.MsgsIn
		tot.Transport.MsgsOut += s.Transport.MsgsOut
		tot.Transport.BytesIn += s.Transport.BytesIn
		tot.Transport.BytesOut += s.Transport.BytesOut
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
		tot.Executed, tot.Decisions,
		tot.Mech.UpdatesSent, tot.Mech.ReservationsSent,
		tot.Mech.SnapshotsInitiated, tot.Mech.SnapshotRestarts,
		tot.Transport.StateIn, tot.Transport.MsgsIn, tot.Transport.MsgsOut,
		tot.Transport.BytesIn, tot.Transport.BytesOut)
	tw.Flush()
	if workload.IsAppScenario(p.scenario) {
		fmt.Fprintf(w, "quiescent: %d tasks executed, termination detected by the %s protocol\n\n", tot.Executed, p.term)
		return
	}
	fmt.Fprintf(w, "quiescent: all %d work items executed and acknowledged\n\n", tot.Executed)
}
