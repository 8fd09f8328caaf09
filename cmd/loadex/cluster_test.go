package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
// cell path — and renders its per-rank report.
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
			stats := make([]nodeStats, rep.Procs)
			for r := range stats {
				stats[r] = nodeStats{Rank: r, Executed: rep.Executed[r], Mech: rep.Stats[r]}
			}
			var report strings.Builder
			writeClusterReport(&report, &p, stats)
			for _, want := range []string{"mechanism " + mech, "scenario quickstart", "quiescent", "ds protocol"} {
				if !strings.Contains(report.String(), want) {
					t.Fatalf("report missing %q:\n%s", want, report.String())
				}
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
