package main

// Forked net cells: `loadex run -runtime net` forks one `loadex node`
// process per rank (the binary re-executes itself), wires them through
// the ADDR/PEERS stdio handshake and gathers each node's STATS line.
// Each process hosts one rank of the scenario's application and
// quiescence is decided by the distributed termination detector
// (-term).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

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

// defaultStatsTimeout is the watchdog slack: it bounds the fork-to-ADDR
// phase on its own (every child only has to bind one localhost socket
// and print a line, so a child silent for this long is wedged, not
// slow) and pads the STATS deadline on top of the quiescence budget.
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
			"-procs", strconv.Itoa(p.procs),
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
			"-timeout", p.quiesceTimeout().String(),
		}
		if p.chaos != "" {
			args = append(args, "-chaos", p.chaos)
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
	addrDeadline := time.Now().Add(defaultStatsTimeout)
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
	// deadline covers the per-node quiescence budget plus handshake
	// slack. A rank exiting cleanly after its STATS is the normal
	// shutdown; exiting with an error, or before its STATS line, kills
	// the run naming the rank — one dead process means the survivors
	// would wait out their full quiescence timeout for a detector that
	// can never conclude.
	stats := make([]nodeStats, p.procs)
	gotStats := make([]bool, p.procs)
	deadline := time.Now().Add(p.quiesceTimeout() + defaultStatsTimeout)
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
