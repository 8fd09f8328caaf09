package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// chaosForkedParams is the forked solver cell the chaos tests reuse.
func chaosForkedParams(procs int) nodeParams {
	return nodeParams{
		procs: procs, scenario: "solver-wl", mech: "naive", term: "ds",
		threshold: 5, noMore: true,
		masters: 1, decisions: 1, work: 60, slaves: 2,
		spin: time.Millisecond,
	}
}

// TestForkedChaosCrashWatchdog: under the crash plan a `loadex node`
// process exits mid-run, and the collection watchdog must name the dead
// rank and its exit status instead of hanging on the vanished STATS
// line (the bug this PR's watchdog rewrite fixed: collection used to
// read children sequentially with no deadline).
func TestForkedChaosCrashWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a multi-process TCP cluster")
	}
	exe := buildLoadex(t)
	p := chaosForkedParams(8)
	p.chaos = "crash"
	// The cell must still be running when the plan's 50 ms fuse fires
	// (the 8-rank solver cell ends in about 55 ms): 3 masters × 60
	// decisions × 2 slaves × 5 ms is 1.8 s of spin, at least 225 ms on
	// 8 ranks however the work is spread.
	p.scenario = "quickstart"
	p.masters, p.decisions, p.spin = 3, 60, 5*time.Millisecond
	start := time.Now()
	_, err := runClusterForkedWith(exe, &p)
	if err == nil {
		t.Fatalf("crash plan completed cleanly: fault silently absorbed")
	}
	if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "died") {
		t.Fatalf("watchdog did not name the dead rank: %v", err)
	}
	// The watchdog must report promptly — well inside the stats
	// deadline, nowhere near a hang.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("crash took %s to surface", elapsed)
	}
}

// TestForkedChaosDelayValidates: the delay plan on the forked runtime
// must quiesce and leave per-rank traces that pass the offline
// validator — the acceptance path of `loadex run -runtime net -chaos delay`.
func TestForkedChaosDelayValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a multi-process TCP cluster")
	}
	exe := buildLoadex(t)
	p := chaosForkedParams(4)
	p.chaos = "delay"
	p.traceDir = t.TempDir()
	if _, err := runClusterForkedWith(exe, &p); err != nil {
		t.Fatalf("delay plan run failed: %v", err)
	}
	var out bytes.Buffer
	if err := validateTraceRoot(&out, p.traceDir); err != nil {
		t.Fatalf("validator flagged the delay run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "OK: all invariants hold") {
		t.Fatalf("validator produced no OK verdict:\n%s", out.String())
	}
}
