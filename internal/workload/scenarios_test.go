package workload_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRegistry(t *testing.T) {
	want := []string{"burst", "hetero", "quickstart", "ramp", "straggler"}
	got := workload.Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered scenarios %v, want %v", got, want)
	}
	for _, name := range want {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if w.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, w.Name())
		}
		if w.Describe() == "" {
			t.Errorf("scenario %q has no description", name)
		}
	}
	_, err := workload.Get("nope")
	if err == nil {
		t.Fatal("Get of unknown scenario succeeded")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scenario error %q does not list %q", err, name)
		}
	}
}

func TestProgramsDeterministicAndShaped(t *testing.T) {
	p := workload.DefaultParams()
	for _, w := range workload.All() {
		a, b := programs(t, w, p), programs(t, w, p)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: programs are not deterministic", w.Name())
		}
		if len(a) != p.Procs {
			t.Errorf("%s: %d programs for %d procs", w.Name(), len(a), p.Procs)
		}
		if workload.DecisionCount(a) == 0 {
			t.Errorf("%s: no decisions", w.Name())
		}
		for r, prog := range a {
			if prog.SpeedFactor() <= 0 {
				t.Errorf("%s rank %d: speed factor %v", w.Name(), r, prog.SpeedFactor())
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := workload.DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*workload.Params){
		func(p *workload.Params) { p.Procs = 1 },
		func(p *workload.Params) { p.Masters = 0 },
		func(p *workload.Params) { p.Masters = p.Procs + 1 },
		func(p *workload.Params) { p.Decisions = -1 },
		func(p *workload.Params) { p.Slaves = -1 },
		func(p *workload.Params) { p.Work = -5 },
		func(p *workload.Params) { p.Spin = -time.Second },
	}
	for i, mutate := range bad {
		p := workload.DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: params %+v validated", i, p)
		}
	}
	// Normalize fills zeros and clamps masters.
	p := workload.Params{Procs: 3, Masters: 9}
	p.Normalize()
	if p.Masters != 3 {
		t.Errorf("Normalize left masters %d, want clamped to 3", p.Masters)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("normalized params invalid: %v", err)
	}
}

// TestScenariosTerminateUnderSim is the registry liveness gate: every
// registered scenario must run to completion on the deterministic sim
// runtime with every mechanism, within a deadline. A scenario whose
// programs can stall (a rank waiting forever on a decision) fails here
// before it can rot in the matrix.
func TestScenariosTerminateUnderSim(t *testing.T) {
	p := workload.Params{Procs: 6, Masters: 2, Decisions: 2, Work: 90, Slaves: 3, Spin: 200 * time.Microsecond}
	for _, w := range workload.All() {
		for _, mech := range core.Mechanisms() {
			w, mech := w, mech
			t.Run(w.Name()+"/"+string(mech), func(t *testing.T) {
				progs := programs(t, w, p)
				type result struct {
					rep *workload.Report
					err error
				}
				ch := make(chan result, 1)
				go func() {
					rep, err := workload.Run(&sim.AppRunner{}, w, mech, core.Config{}, p)
					ch <- result{rep, err}
				}()
				select {
				case res := <-ch:
					if res.err != nil {
						t.Fatal(res.err)
					}
					if got, want := res.rep.DecisionsTaken, workload.DecisionCount(progs); got != want {
						t.Errorf("took %d decisions, programs script %d", got, want)
					}
				case <-time.After(60 * time.Second):
					t.Fatal("scenario did not terminate under sim within 60s")
				}
			})
		}
	}
}
