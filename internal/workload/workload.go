// Package workload makes the application driven on top of the
// load-exchange mechanisms a first-class, transport-agnostic value.
//
// The paper compares exchange mechanisms under one application workload;
// this package is where that workload lives. A Workload builds, for a
// mechanism and a set of Params, one App (app.go): the Algorithm 1
// behaviours of every rank. Every runtime (internal/sim, internal/net)
// implements the AppRunner interface once and can then run any
// registered scenario with any mechanism through Run, so the
// cross-runtime equivalence suite extends to new scenarios for free.
//
// Scenarios are registered by name. The synthetic ones (scenarios.go:
// quickstart, burst, ramp, hetero, straggler) compile the Params into
// one Program per rank — a small event script of local load changes,
// dynamic-decision points (slave counts and work sizes) and
// No_more_master announcements, plus the rank's initial load and an
// execution-speed factor — which one App walks (program.go);
// internal/solver registers the paper's application. `loadex run`
// exposes the scenario × mechanism × runtime matrix on the command
// line.
package workload

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// Params shapes a scenario instance. Scenarios interpret the base
// values freely (burst promotes every rank to master, ramp shrinks the
// per-decision work monotonically, …) but always derive their programs
// deterministically from Params alone, so separately started processes
// of one cluster compute identical programs.
type Params struct {
	// Procs is the cluster size (≥ 2).
	Procs int
	// Masters is the base master count: ranks [0,Masters) take dynamic
	// decisions (scenarios may widen this, e.g. burst).
	Masters int
	// Decisions is the base number of decisions per master.
	Decisions int
	// Work is the base work-unit total distributed per decision.
	Work float64
	// Slaves is the number of least-loaded slaves selected per decision.
	Slaves int
	// Spin is the nominal wall-clock execution time per work item; the
	// executing rank scales it by its Program.Speed factor.
	Spin time.Duration
	// Term names the termination-detection protocol that ends the run
	// (internal/termdet; empty = termdet.Default).
	Term string
	// Record, when non-nil, streams per-rank trace events (sends,
	// receives, computes, decisions, finals) for `loadex validate`: Run
	// wraps the application with Recorded, and program scenarios add
	// their decision spans. It never travels to forked processes: each
	// `loadex node` opens its own recorder.
	Record *chaos.Recorder
}

// DefaultParams returns the quickstart-sized defaults.
func DefaultParams() Params {
	return Params{Procs: 8, Masters: 3, Decisions: 4, Work: 120, Slaves: 3, Spin: time.Millisecond}
}

// Normalize fills zero structural fields from DefaultParams and clamps
// Masters to Procs. Spin is never touched: zero spin (instant work
// items) is a meaningful request, not an omission. It is idempotent.
func (p *Params) Normalize() {
	d := DefaultParams()
	if p.Procs == 0 {
		p.Procs = d.Procs
	}
	if p.Masters == 0 {
		p.Masters = d.Masters
	}
	if p.Decisions == 0 {
		p.Decisions = d.Decisions
	}
	if p.Work == 0 {
		p.Work = d.Work
	}
	if p.Slaves == 0 {
		p.Slaves = d.Slaves
	}
	if p.Masters > p.Procs {
		p.Masters = p.Procs
	}
}

// Validate reports whether the params describe a runnable cluster.
func (p Params) Validate() error {
	if p.Procs < 2 {
		return fmt.Errorf("workload: need at least 2 processes, got %d", p.Procs)
	}
	if p.Masters < 1 || p.Masters > p.Procs {
		return fmt.Errorf("workload: masters %d out of range [1,%d]", p.Masters, p.Procs)
	}
	if p.Decisions < 1 {
		return fmt.Errorf("workload: need at least 1 decision per master, got %d", p.Decisions)
	}
	if p.Slaves < 1 {
		return fmt.Errorf("workload: need at least 1 slave per decision, got %d", p.Slaves)
	}
	if p.Work <= 0 {
		return fmt.Errorf("workload: work per decision must be positive, got %g", p.Work)
	}
	if p.Spin < 0 {
		return fmt.Errorf("workload: negative spin %s", p.Spin)
	}
	return nil
}

// Op is the kind of one program step.
type Op int

// The program step kinds.
const (
	// OpDecide takes one dynamic decision: acquire a coherent view,
	// distribute Work units over the Slaves least-loaded peers, commit
	// the reservation and ship the work.
	OpDecide Op = iota
	// OpLocalChange applies Delta to the rank's own load (a spontaneous
	// variation, not slave work).
	OpLocalChange
	// OpNoMoreMaster announces the rank will never decide again (§2.3).
	OpNoMoreMaster
)

func (o Op) String() string {
	switch o {
	case OpDecide:
		return "decide"
	case OpLocalChange:
		return "local_change"
	case OpNoMoreMaster:
		return "no_more_master"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Step is one event of a rank's program. Only the fields relevant to Op
// are used.
type Step struct {
	Op Op
	// Work and Slaves shape an OpDecide step.
	Work   float64
	Slaves int
	// Delta is the OpLocalChange load variation.
	Delta core.Load
}

// Program is one rank's share of a scenario: its initial load (known to
// every process, per the paper's static-mapping convention), an
// execution-speed factor and the ordered event script. Ranks execute
// their programs concurrently; steps within one program are sequential.
type Program struct {
	// Initial is the rank's load at Init time.
	Initial core.Load
	// Speed multiplies the execution time of work items this rank
	// executes (1 = nominal, 2 = twice as slow; 0 is treated as 1).
	Speed float64
	// Steps is the rank's event script.
	Steps []Step
}

// Workload is a named scenario: a deterministic builder of the App one
// run hosts.
type Workload interface {
	// Name is the registry key ("quickstart", "burst", …).
	Name() string
	// Describe returns a one-line description for catalogues and usage
	// messages.
	Describe() string
	// NewApp builds the application instance for one run. The mechanism
	// and its configuration come from the run's cell; the scenario
	// derives everything else deterministically from p, so separately
	// started processes of one cluster build identical instances.
	NewApp(mech core.Mech, cfg core.Config, p Params) (App, AppRunOptions, error)
}

// ProgramScenario is a Workload compiled to per-rank programs.
type ProgramScenario interface {
	Workload
	// Programs compiles the scenario for p (normalized first), returning
	// one program per rank.
	Programs(p Params) ([]Program, error)
}

// IsProgramScenario reports whether the named registered scenario is
// compiled to per-rank programs.
func IsProgramScenario(name string) bool {
	w, err := Get(name)
	if err != nil {
		return false
	}
	_, ok := w.(ProgramScenario)
	return ok
}

// SpeedFactor returns the program's execution-speed factor, defaulting
// to 1.
func (prog Program) SpeedFactor() float64 {
	if prog.Speed <= 0 {
		return 1
	}
	return prog.Speed
}

// Setup splits a program set into the per-rank initial-load and
// speed-factor vectors the runtimes seed at cluster construction time.
func Setup(progs []Program) (initial []core.Load, speed []float64) {
	initial = make([]core.Load, len(progs))
	speed = make([]float64, len(progs))
	for r, prog := range progs {
		initial[r] = prog.Initial
		speed[r] = prog.SpeedFactor()
	}
	return initial, speed
}
