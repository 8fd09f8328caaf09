package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smoke runs one workload at a hundredth of its size.
func smoke(t *testing.T, name string, trace bool) (result, *env) {
	t.Helper()
	e := &env{workload: name, seed: 7, seconds: 0.01, trace: trace, size: 0.01, out: t.TempDir()}
	res, err := run(e, workloads[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res, e
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, e := smoke(t, name, false)
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a positive %s", d.name, v, ok, d.unit)
				}
			}
			if _, err := os.Stat(e.file("spans.json")); err == nil {
				t.Errorf("an untraced run wrote spans")
			}
		})
	}
}

func TestSmokeTracedRun(t *testing.T) {
	res, e := smoke(t, "net-pull", true)
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
			t.Errorf("%s = %+v (present %v)", d.name, v, ok)
		}
	}
	for _, name := range []string{"net.decide.call_s", "net.frames_in", "net.codec.encode_ns", "chaos.rec.events", "bench.spans"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["chaos.validate.violations"].Value; v != 0 {
		t.Errorf("chaos.validate.violations = %v", v)
	}
	b, err := os.ReadFile(e.file("spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("spans are not JSON: %v", err)
	}
	if got, want := float64(len(doc.TraceEvents)), res.Metrics["bench.spans"].Value; got != want {
		t.Errorf("%v spans written, bench.spans = %v", got, want)
	}
}

// BENCHMARK.json is written by hand; it must list exactly what the
// program reports.
func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var m struct {
		Workloads []row
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []row, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", what, i, g, d)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if def, ok := workloads[w.Name]; !ok || def.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json and the program disagree", w.Name)
		}
	}
}

// stallBench never finishes its second round.
type stallBench struct {
	e      *env
	rounds int
}

func (b *stallBench) setup() error { return nil }
func (b *stallBench) round(*tracer) (roundOut, error) {
	b.rounds++
	out := roundOut{parts: []float64{1}, work: 1, stateMsgs: 1, lat: []float64{1}, attempted: 1}
	if b.rounds < 2 {
		return out, nil
	}
	out.failed = 1
	return out, b.e.guard("stalling op", func() error { select {} })
}
func (b *stallBench) check() error                  { return nil }
func (b *stallBench) layers(*tracer, metrics) error { return nil }
func (b *stallBench) stop()                         {}

func TestStallFailsTheRunInBoundedTime(t *testing.T) {
	defer func(d time.Duration) { opDeadline = d }(opDeadline)
	opDeadline = 50 * time.Millisecond
	e := &env{workload: "stall", seed: 1, seconds: 60, size: 0.01, out: t.TempDir()}
	t0 := time.Now()
	res, err := run(e, workloadDef{new: func(e *env) bench { return &stallBench{e: e} }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("correct=%v attempted=%d failed=%d, want an incorrect run with 1 of 2 failed", res.Correct, res.Attempted, res.Failed)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("the stalled run took %s", d)
	}
	dump, err := os.ReadFile(e.file("stall.txt"))
	if err != nil || !strings.Contains(string(dump), "goroutine") {
		t.Errorf("no goroutine dump: %v", err)
	}
}

func TestSpreadIsPythonsQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{3, 1, 2, 4, 5, 6, 7, 8, 10, 9}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestAgree(t *testing.T) {
	write := func(dir string, scale float64) {
		for _, wl := range workloadNames() {
			for seed := uint64(1); seed <= 4; seed++ {
				res := result{Correct: true, Attempted: 1, Metrics: map[string]value{}}
				for _, d := range endToEnd {
					v := 100 + float64(seed)/10
					if d.better == "lower" {
						v *= scale
					} else {
						v /= scale
					}
					res.Metrics[d.name] = value{v, d.unit}
				}
				if err := save(&env{workload: wl, seed: seed, out: dir}, res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a, same, worse := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 1)
	write(same, 1.01)
	write(worse, 1.3)
	if !agreeDirs(io.Discard, a, same) {
		t.Errorf("a set 1%% worse does not agree")
	}
	if agreeDirs(io.Discard, a, worse) {
		t.Errorf("a set 30%% worse agrees")
	}
}
