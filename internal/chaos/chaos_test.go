package chaos

import (
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestGetRegistry(t *testing.T) {
	for _, name := range []string{"", "none"} {
		p, err := Get(name)
		if p != nil || err != nil {
			t.Fatalf("Get(%q) = %v, %v; want nil, nil", name, p, err)
		}
	}
	if !(*Plan)(nil).Active() {
		// nil plan must read as inactive everywhere.
	} else {
		t.Fatalf("nil plan reports Active")
	}
	names := Names()
	if len(names) == 0 {
		t.Fatalf("empty plan registry")
	}
	for _, name := range names {
		p, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if !p.Active() {
			t.Errorf("registry plan %q injects nothing", name)
		}
		if Describe(name) == "" {
			t.Errorf("registry plan %q has no description", name)
		}
		// Get hands out copies: mutating one must not leak into the next.
		p.Delay = 42
		q, _ := Get(name)
		if q.Delay == 42 {
			t.Errorf("Get(%q) aliases registry storage", name)
		}
	}
	if _, err := Get("bogus"); err == nil || !strings.Contains(err.Error(), "delay") {
		t.Fatalf("Get(bogus) = %v; want an error listing the registry", err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	p := &Plan{Seed: 7}
	a, b := p.RNGFor(3, 5), p.RNGFor(3, 5)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("same site diverges at draw %d: %d vs %d", i, x, y)
		}
	}
	if p.RNGFor(3, 5).Uint64() == p.RNGFor(5, 3).Uint64() {
		t.Fatalf("site coordinates (3,5) and (5,3) derive the same stream")
	}
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestPlanPredicates(t *testing.T) {
	p := &Plan{Seed: 1, SlowRank: 2, SlowDelay: 0.001, CrashRank: 1, CrashAfter: 0.5, Loss: 1, Delay: 0.002}
	if !p.Crashes(1) || p.Crashes(0) {
		t.Fatalf("Crashes selects the wrong rank")
	}
	if p.CrashedAt(0.4, 1, 3) {
		t.Fatalf("link died before CrashAfter")
	}
	if !p.CrashedAt(0.6, 1, 3) || !p.CrashedAt(0.6, 3, 1) {
		t.Fatalf("links touching the crashed rank must die after CrashAfter")
	}
	if p.CrashedAt(0.6, 0, 3) {
		t.Fatalf("link not touching the crashed rank died")
	}
	if !p.SlowsLink(2, 0) || !p.SlowsLink(0, 2) || p.SlowsLink(0, 1) {
		t.Fatalf("SlowsLink selects the wrong links")
	}
	rng := NewRNG(1)
	if !p.Drops(ClassState, rng) {
		t.Fatalf("Loss=1 must drop every state message")
	}
	if p.Drops(ClassData, rng) || p.Drops(ClassCtrl, rng) || p.Drops(ClassOther, rng) {
		t.Fatalf("without LossData only state-class traffic may drop")
	}
	p.LossData = true
	if !p.Drops(ClassData, rng) {
		t.Fatalf("LossData must extend loss to data-class traffic")
	}
	if p.Drops(ClassCtrl, rng) {
		t.Fatalf("control traffic is never droppable")
	}
	for i := 0; i < 100; i++ {
		if d := p.DelayFor(rng); d < 0 || d >= p.Delay {
			t.Fatalf("DelayFor out of [0, Delay): %v", d)
		}
	}
	var nilPlan *Plan
	if nilPlan.Drops(ClassState, rng) || nilPlan.DelayFor(rng) != 0 {
		t.Fatalf("nil plan must inject nothing")
	}
}

func TestRecorderRoundtrip(t *testing.T) {
	dir := t.TempDir()
	want := []Event{
		{Ev: EvMeta, Rank: 0, N: 2, Scenario: "s", Mech: "m", Term: "ds", Plan: "delay"},
		{Ev: EvSend, Rank: 0, Peer: 1, Kind: 3, Node: 7, Count: 2, Work: 1.5, Size: 64},
		{Ev: EvRecv, Rank: 1, Peer: 0, Kind: 3, Node: 7, Count: 2, Work: 1.5, Size: 64},
		{Ev: EvStart, Rank: 1, Spin: 0.25},
		{Ev: EvDone, Rank: 1},
		{Ev: EvDecide, Rank: 0, View: []float64{3, 1}, Sel: []int{1}, Slaves: 1},
		{Ev: EvFinal, Rank: 1, Executed: 1},
	}
	path := filepath.Join(dir, "run", "rank-0.jsonl")
	rec, err := OpenRecorder(path)
	if err != nil {
		t.Fatalf("OpenRecorder: %v", err)
	}
	for _, e := range want {
		rec.Record(e)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got, err := ReadDir(filepath.Dir(path)); err != nil || len(got) != len(want) {
		t.Fatalf("ReadDir = %d events, %v; want %d, nil", len(got), err, len(want))
	}
	dirs, err := TraceDirs(dir)
	if err != nil || !reflect.DeepEqual(dirs, []string{filepath.Dir(path)}) {
		t.Fatalf("TraceDirs = %v, %v; want [%s]", dirs, err, filepath.Dir(path))
	}
	// A nil recorder must be a safe sink.
	var nilRec *Recorder
	nilRec.Record(want[0])
	if err := nilRec.Close(); err != nil {
		t.Fatalf("nil recorder Close: %v", err)
	}
}

// cleanRun is a minimal 2-rank trace satisfying every invariant.
func cleanRun() []Event {
	return []Event{
		{Ev: EvMeta, N: 2, Scenario: "s", Mech: "m"},
		{Ev: EvSend, Rank: 0, Peer: 1, Kind: 1, Work: 2},
		{Ev: EvRecv, Rank: 1, Peer: 0, Kind: 1, Work: 2},
		{Ev: EvStart, Rank: 1, Spin: 0.5},
		{Ev: EvDone, Rank: 1},
		{Ev: EvDecide, Rank: 0, View: []float64{5, 1}, Sel: []int{1}},
		{Ev: EvFinal, Rank: 0, Executed: 0},
		{Ev: EvFinal, Rank: 1, Executed: 1},
	}
}

func violated(r *Report, check string) bool {
	for _, v := range r.Violations {
		if v.Check == check {
			return true
		}
	}
	return false
}

func TestValidateClean(t *testing.T) {
	r := Validate(cleanRun())
	if !r.OK() {
		t.Fatalf("clean run flagged: %v", r.Violations)
	}
	if r.N != 2 || r.Sends != 1 || r.Recvs != 1 || r.Starts != 1 || r.Dones != 1 || r.Decides != 1 || r.Finals != 2 {
		t.Fatalf("bad tallies: %+v", r)
	}
}

func TestValidateViolations(t *testing.T) {
	cases := []struct {
		name, check string
		mutate      func([]Event) []Event
	}{
		{"lost message", "conservation", func(e []Event) []Event {
			return append(e, Event{Ev: EvSend, Rank: 0, Peer: 1, Kind: 9})
		}},
		{"duplicated message", "conservation", func(e []Event) []Event {
			return append(e, Event{Ev: EvRecv, Rank: 1, Peer: 0, Kind: 1, Work: 2})
		}},
		{"forged payload", "conservation", func(e []Event) []Event {
			e[2].Work = 3 // received payload differs from the sent one
			return e
		}},
		{"unfinished compute", "compute", func(e []Event) []Event {
			return append(e, Event{Ev: EvStart, Rank: 0, Spin: 1})
		}},
		{"executed mismatch", "compute", func(e []Event) []Event {
			e[7].Executed = 5
			return e
		}},
		{"missing final", "quiescence", func(e []Event) []Event {
			return e[:7] // drop rank 1's final: a crashed rank
		}},
		{"double final", "quiescence", func(e []Event) []Event {
			return append(e, Event{Ev: EvFinal, Rank: 1, Executed: 1})
		}},
		{"unknown event", "quiescence", func(e []Event) []Event {
			return append(e, Event{Ev: "bogus", Rank: 0})
		}},
		{"wrong selection", "selection", func(e []Event) []Event {
			e[5].View = []float64{1, 9, 5}
			e[5].Sel = []int{1} // rank 1 carries the heaviest load
			return e
		}},
		{"self selection", "selection", func(e []Event) []Event {
			e[5].Sel = []int{0}
			return e
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Validate(tc.mutate(cleanRun()))
			if r.OK() {
				t.Fatalf("violation not detected")
			}
			if !violated(r, tc.check) {
				t.Fatalf("want a %q violation, got %v", tc.check, r.Violations)
			}
		})
	}
}

func TestValidateEqualLoadInterchange(t *testing.T) {
	// Equal-load ranks are interchangeable: selecting rank 2 over the
	// canonical rank 1 is coherent when both carry the same load.
	e := cleanRun()
	e[5].View = []float64{9, 1, 1}
	e[5].Sel = []int{2}
	if r := Validate(e); !r.OK() {
		t.Fatalf("equal-load interchange flagged: %v", r.Violations)
	}
}

func TestLeastLoaded(t *testing.T) {
	view := []float64{5, 1, 3, 1, 4}
	if got := LeastLoaded(view, -1, 2); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("ties must break toward the lower rank: got %v", got)
	}
	if got := LeastLoaded(view, 1, 2); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("exclusion ignored: got %v", got)
	}
	if got := LeastLoaded(view, 0, 10); len(got) != 4 {
		t.Fatalf("k beyond the view must clamp: got %v", got)
	}
}

// TestLeastLoadedMatchesPlanDecision pins the validator's selection
// policy to the one the runtimes execute: if core.PlanDecision ever
// changes its tie-breaking or metric, this drift-detector fails.
func TestLeastLoadedMatchesPlanDecision(t *testing.T) {
	rng := NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		n := 2 + int(rng.Uint64()%14)
		master := int(rng.Uint64()) % n
		if master < 0 {
			master = -master
		}
		k := 1 + int(rng.Uint64()%uint64(n))
		view := make([]float64, n)
		loads := make([]core.Load, n)
		for i := range view {
			// Coarse grid so load ties actually occur.
			view[i] = float64(rng.Uint64() % 8)
			loads[i] = core.Load{view[i]}
		}
		d := core.PlanDecision(core.ViewOf(loads), master, k, 100)
		var got []int
		for _, a := range d.Assignments {
			got = append(got, int(a.Proc))
		}
		sort.Ints(got)
		want := LeastLoaded(view, master, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d master=%d k=%d view=%v: PlanDecision selected %v, chaos.LeastLoaded %v",
				n, master, k, view, got, want)
		}
	}
}

// viewRun is cleanRun under mech with final views that agree: rank 0
// ends at 4, rank 1 at 0, and each believes the other's load.
func viewRun(mech string, threshold float64) []Event {
	e := cleanRun()
	e[0].Mech, e[0].Threshold = mech, threshold
	e[6].View = []float64{4, 0}
	e[7].View = []float64{4, 0}
	return e
}

// TestValidateViews: a maintaining mechanism's final views must hold
// their owners' final loads, up to the threshold and rounding, except
// for a rank that announced No_more_master; naive is held to it only at
// a zero threshold, snapshot never.
func TestValidateViews(t *testing.T) {
	believe := func(e []Event, load float64) []Event {
		e[7].View[0] = load // rank 1's belief about rank 0
		return e
	}
	announce := Event{Ev: EvState, Rank: 1, Peer: 0, Kind: core.KindNoMoreMaster}
	cases := []struct {
		name  string
		run   []Event
		stale bool
	}{
		{"naive agrees", viewRun("naive", 0), false},
		{"increments rounding residue", believe(viewRun("increments", 0), 4+1e-12), false},
		{"increments stale", believe(viewRun("increments", 0), 7), true},
		{"naive stale", believe(viewRun("naive", 0), 7), true},
		{"snapshot unchecked", believe(viewRun("snapshot", 0), 7), false},
		{"announced rank exempt", append(believe(viewRun("increments", 0), 7), announce), false},
		{"within the threshold", believe(viewRun("increments", 5), 7), false},
		{"beyond the threshold", believe(viewRun("increments", 2), 7), true},
		{"naive with a threshold unchecked", believe(viewRun("naive", 2), 7), false},
		{"short view", func() []Event { e := viewRun("naive", 0); e[7].View = []float64{4}; return e }(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Validate(tc.run)
			if got := violated(r, "view"); got != tc.stale {
				t.Fatalf("view violated %v, want %v: %v", got, tc.stale, r.Violations)
			}
			if r.Views != 2 {
				t.Fatalf("%d finals with a view, want 2", r.Views)
			}
		})
	}
	// A final without a view is skipped, not counted.
	e := believe(viewRun("increments", 0), 7)
	e[6].View = nil
	if r := Validate(e); !r.OK() || r.Views != 1 {
		t.Fatalf("a final without a view: %d views, %v", r.Views, r.Violations)
	}
	if kindNoMoreMaster != core.KindNoMoreMaster {
		t.Fatalf("kindNoMoreMaster %d, core.KindNoMoreMaster %d", kindNoMoreMaster, core.KindNoMoreMaster)
	}
}
