package workload_test

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSimProgramDecisionSpans traces a program cell on the simulator:
// every decision records a decision.acquire span, and the spans' summed
// durations are the run's DecisionLatency counter — the span ends at
// exactly begin + latency, in virtual seconds. The trace as a whole
// must pass the offline validator.
func TestSimProgramDecisionSpans(t *testing.T) {
	w, err := workload.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := chaos.OpenRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	p := matrixParams
	rec.Record(chaos.Event{Ev: chaos.EvMeta, N: p.Procs, Scenario: w.Name(), Mech: string(core.MechSnapshot)})
	p.Record = rec
	rep, err := workload.Run(&sim.AppRunner{}, w, core.MechSnapshot, core.Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := chaos.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begins := map[int64]float64{}
	acquires, spanned := 0, 0.0
	for _, e := range events {
		if e.Span != "decision.acquire" {
			continue
		}
		switch e.Ev {
		case chaos.EvSpanBegin:
			begins[e.Sid] = e.T
		case chaos.EvSpanEnd:
			acquires++
			spanned += e.T - begins[e.Sid]
		}
	}
	if want := p.Masters * p.Decisions; acquires != want {
		t.Errorf("%d decision.acquire spans, want masters × decisions = %d", acquires, want)
	}
	lat := rep.Counters.DecisionLatency
	if lat <= 0 {
		t.Fatalf("snapshot cell reported decision latency %g", lat)
	}
	if rel := math.Abs(spanned-lat) / lat; rel > 1e-9 {
		t.Errorf("summed decision.acquire spans %.12g s vs DecisionLatency %.12g s (rel err %g)", spanned, lat, rel)
	}
	if v := chaos.Validate(events); !v.OK() {
		t.Errorf("trace fails validation: %v", v.Violations)
	}
}
