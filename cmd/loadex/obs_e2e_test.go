package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestReportReconcilesDecisionLatency is the observability acceptance
// check end to end: fork a traced TCP cluster, render the trace with
// the real `loadex report` binary, and reconcile two independent
// measurement paths — the summed durations of the decision.acquire
// spans in the Chrome timeline against the run's decision-latency
// counter from the STATS lines. The span ends are pinned to exactly
// begin+latency at the emit site, so the two must agree to well within
// 5% (the budget covers float µs rounding, not clock skew).
func TestReportReconcilesDecisionLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a multi-process TCP cluster")
	}
	exe := buildLoadex(t)
	traceDir := t.TempDir()

	p := nodeParams{
		procs: 4, scenario: "quickstart", mech: "snapshot", term: "ds",
		threshold: 5, noMore: true,
		masters: 2, decisions: 3, work: 60, slaves: 2,
		spin: time.Millisecond, settle: 20 * time.Millisecond,
		traceDir: traceDir,
	}
	stats, err := runClusterForkedWith(exe, &p)
	if err != nil {
		t.Fatal(err)
	}
	var wantLat float64
	for _, s := range stats {
		wantLat += s.Counters.DecisionLatency
	}
	if wantLat <= 0 {
		t.Fatal("snapshot run reported zero decision latency; nothing to reconcile")
	}

	out, err := exec.Command(exe, "report", traceDir).CombinedOutput()
	if err != nil {
		t.Fatalf("loadex report: %v\n%s", err, out)
	}

	data, err := os.ReadFile(filepath.Join(traceDir, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("timeline.json is not loadable trace_event JSON: %v", err)
	}

	var gotLat float64
	acquires, metas := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			if e.Dur < 0 {
				t.Errorf("span %s has negative duration %g", e.Name, e.Dur)
			}
			if e.Name == "decision.acquire" {
				gotLat += e.Dur / 1e6 // µs → s
				acquires++
			}
		}
	}
	if metas == 0 {
		t.Error("timeline has no viewer metadata (process/thread names)")
	}
	wantDecisions := p.masters * p.decisions
	if acquires != wantDecisions {
		t.Errorf("timeline holds %d decision.acquire spans, want %d (masters × decisions)",
			acquires, wantDecisions)
	}
	if rel := math.Abs(gotLat-wantLat) / wantLat; rel > 0.05 {
		t.Errorf("summed decision.acquire span durations %.6fs vs decision-latency counter %.6fs (rel err %.3f > 0.05)",
			gotLat, wantLat, rel)
	}
}

// TestObsValidateAddrUX: -obs shares the listing-error UX of
// -mech/-chaos — a malformed address is rejected up front, naming the
// accepted forms.
func TestObsValidateAddrUX(t *testing.T) {
	p := nodeParams{
		procs: 2, scenario: "quickstart", mech: "snapshot",
		threshold: 5, term: "ds",
		masters: 1, decisions: 1, work: 10, slaves: 1,
		obsAddr: "not-an-address",
	}
	err := p.validate(false)
	if err == nil {
		t.Fatal("validate accepted -obs \"not-an-address\"")
	}
	for _, want := range []string{"not-an-address", "accepted forms"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	p.obsAddr = "127.0.0.1:0"
	if err := p.validate(false); err != nil {
		t.Fatalf("validate rejected a well-formed -obs address: %v", err)
	}
}
