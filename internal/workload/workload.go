// Package workload makes the application driven on top of the
// load-exchange mechanisms a first-class, transport-agnostic value.
//
// The paper compares exchange mechanisms under one application workload;
// this package is where that workload lives. A Workload compiles a set
// of Params into one Program per rank — a small event script of local
// load changes, dynamic-decision points (slave counts and work sizes)
// and No_more_master announcements — plus the rank's initial load and an
// execution-speed factor. Every runtime (internal/sim, internal/live,
// internal/net) implements the Driver interface once and can then run
// any registered scenario with any mechanism, so the cross-runtime
// equivalence suite extends to new scenarios for free.
//
// Scenarios are registered by name (see scenarios.go): quickstart,
// burst, ramp, hetero and straggler ship built in; `loadex run` exposes
// the scenario × mechanism × runtime matrix on the command line.
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
	// Term names the termination-detection protocol for application
	// scenarios (internal/termdet; empty = termdet.Default). Program
	// scenarios quiesce through their own Done announcements and ignore
	// it.
	Term string
	// Record, when non-nil, streams per-rank trace events (sends,
	// receives, computes, finals) for `loadex validate`. Only
	// application scenarios honour it here — RunAppScenario wraps the
	// application with Recorded; program scenarios trace through their
	// runtime hosts instead. It never travels to forked processes:
	// each `loadex node` opens its own recorder.
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

// Workload is a named scenario: a deterministic compiler from Params to
// per-rank programs.
type Workload interface {
	// Name is the registry key ("quickstart", "burst", …).
	Name() string
	// Describe returns a one-line description for catalogues and usage
	// messages.
	Describe() string
	// Programs compiles the scenario for p (normalized first), returning
	// one program per rank.
	Programs(p Params) ([]Program, error)
}

// DecisionCount returns the total number of OpDecide steps across all
// programs.
func DecisionCount(progs []Program) int {
	total := 0
	for _, prog := range progs {
		for _, st := range prog.Steps {
			if st.Op == OpDecide {
				total++
			}
		}
	}
	return total
}

// TotalInitial sums the initial loads of all ranks.
func TotalInitial(progs []Program) core.Load {
	var total core.Load
	for _, prog := range progs {
		total = total.Add(prog.Initial)
	}
	return total
}

// ExpectedFinals returns the true final load of every rank once the
// cluster quiesces: initial plus the rank's own OpLocalChange deltas
// (work items add and then subtract the same load, so they cancel).
func ExpectedFinals(progs []Program) []core.Load {
	finals := make([]core.Load, len(progs))
	for r, prog := range progs {
		finals[r] = prog.Initial
		for _, st := range prog.Steps {
			if st.Op == OpLocalChange {
				finals[r] = finals[r].Add(st.Delta)
			}
		}
	}
	return finals
}

// HasLocalChanges reports whether any program contains an OpLocalChange
// step (such scenarios void the simple item-count conservation window).
func HasLocalChanges(progs []Program) bool {
	for _, prog := range progs {
		for _, st := range prog.Steps {
			if st.Op == OpLocalChange {
				return true
			}
		}
	}
	return false
}

// ConstantShare returns the per-item work share if every decision in the
// program set distributes the same share, and whether one exists. The
// snapshot conservation window is only expressible in work-item counts
// when the share is constant.
func ConstantShare(progs []Program) (float64, bool) {
	n := len(progs)
	share, found := 0.0, false
	for _, prog := range progs {
		for _, st := range prog.Steps {
			if st.Op != OpDecide {
				continue
			}
			k := st.Slaves
			if k > n-1 {
				k = n - 1
			}
			if k < 1 {
				continue
			}
			s := st.Work / float64(k)
			if !found {
				share, found = s, true
			} else if s != share {
				return 0, false
			}
		}
	}
	return share, found
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
