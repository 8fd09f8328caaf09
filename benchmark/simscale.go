package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
	"repro/internal/workload"
)

// simSizes are the rank counts simulated; the per-layer metric names use
// them whatever size the run is scaled to.
var simSizes = []int{1024, 2048}

// simScaleBench simulates the solver-wl application — the multifrontal
// solver under the workload strategy on a 12³ grid, as the registered
// scenario builds it — at scale, on ranks whose speed factors come from
// the seed.
type simScaleBench struct {
	e     *env
	procs []int       // simSizes scaled to the run's size
	speed [][]float64 // per size, per rank: 1 = nominal, 1.5 = half slower
	a     *symbolic.Analysis

	first []simCell // round one's cells; every later round must equal them
	// acc sums every round's cells, for the per-layer figures.
	acc            map[simKey]*simAcc
	rounds, traced int
}

type simKey struct {
	size int // index into simSizes
	mech core.Mech
}

// simCell is what one simulated run produced; all of it is exact.
type simCell struct {
	Key                   simKey
	Events                uint64
	Decisions             int
	Makespan              float64
	StateMsgs             int64
	StateBytes            float64
	SnapRounds, SnapRests int64
}

type simAcc struct{ wall, events float64 }

func newSimScale(e *env) bench {
	b := &simScaleBench{e: e, acc: map[simKey]*simAcc{}}
	rng := sim.NewRNG(e.seed ^ 0x73696d)
	for _, n := range simSizes {
		n = e.scaled(n, 8)
		b.procs = append(b.procs, n)
		speed := make([]float64, n)
		for r := range speed {
			speed[r] = rng.Range(1, 1.5)
		}
		b.speed = append(b.speed, speed)
	}
	return b
}

// gridFor sizes the grid problem as solver-wl does for a cluster size.
func gridFor(procs int) int {
	switch {
	case procs >= 1024:
		return 12
	case procs >= 16:
		return 10
	}
	return 8
}

// setup analyses the grid problem once; the rounds only build trees and
// mappings from it, as the scenario's cached analysis lets every run do.
func (b *simScaleBench) setup() error {
	nx := gridFor(b.procs[0])
	p, _ := sparse.Grid3D(nx, nx, nx, 1, sparse.Star, sparse.Sym)
	a, err := symbolic.Analyze(p, symbolic.DefaultOptions())
	b.a = a
	return err
}

func (b *simScaleBench) round(tr *tracer) (roundOut, error) {
	out := roundOut{attempted: len(b.procs) * len(core.Mechanisms())}
	var cells []simCell
	b.rounds++
	if tr != nil {
		b.traced++
	}
	for si, n := range b.procs {
		for _, mech := range core.Mechanisms() {
			key := simKey{si, mech}
			var cell simCell
			// The big cells allocate gigabytes; collecting first, outside
			// the timed section, starts every cell from the same heap.
			runtime.GC()
			t0 := time.Now()
			err := b.e.guard(fmt.Sprintf("sim cell %d ranks/%s", n, mech), func() error {
				root := tr.begin("sim.cell", 0, b.rounds*100+len(cells), 0)
				defer tr.end(root)
				s := tr.begin("solver.new_app", root, 0, 0)
				t := tree.Split(tree.Build(b.a), tree.DefaultSplit())
				m, err := mapping.Map(t, mapping.DefaultConfig(n))
				if err != nil {
					return err
				}
				app, opts, err := solver.NewApp(m, solver.DefaultParams(mech, sched.Workload()))
				tr.end(s)
				if err != nil {
					return err
				}
				opts.Speed = b.speed[si]
				s = tr.begin("sim.run_app", root, 0, 0)
				hr, err := (&sim.AppRunner{}).RunApp(n, app, opts)
				tr.end(s)
				if err != nil {
					return err
				}
				res := app.Outcome(hr)
				if res.Err != nil {
					return res.Err
				}
				c := workload.CountersFromApp(hr, res)
				st := (&workload.Report{Stats: res.Stats}).TotalStats()
				cell = simCell{Key: key, Events: hr.Steps, Decisions: res.Decisions, Makespan: hr.Time,
					StateMsgs: c.StateMsgs, StateBytes: c.StateBytes,
					SnapRounds: c.SnapshotRounds, SnapRests: st.SnapshotRestarts}
				return nil
			})
			wall := time.Since(t0).Seconds()
			if err != nil {
				out.failed++
				return out, err
			}
			out.parts = append(out.parts, wall)
			out.work += float64(cell.Events)
			out.stateMsgs += float64(cell.StateMsgs)
			cells = append(cells, cell)
			a := b.acc[key]
			if a == nil {
				a = &simAcc{}
				b.acc[key] = a
			}
			a.wall += wall
			a.events += float64(cell.Events)
		}
	}
	if b.first == nil {
		b.first = cells
	} else if !reflect.DeepEqual(b.first, cells) {
		out.failed = out.attempted
		return out, fmt.Errorf("round %d cells differ from round 1 on the same seed:\n%+v\n%+v", b.rounds, cells, b.first)
	}
	out.lat = []float64{out.wall()}
	return out, nil
}

func (b *simScaleBench) check() error {
	if len(b.first) != len(b.procs)*len(core.Mechanisms()) {
		return fmt.Errorf("%d cells completed, want %d", len(b.first), len(b.procs)*len(core.Mechanisms()))
	}
	for _, c := range b.first {
		ref := b.first[c.Key.size*len(core.Mechanisms())]
		if c.Decisions != ref.Decisions || c.Decisions == 0 {
			return fmt.Errorf("%d ranks: %s took %d decisions, %s %d; the count is fixed by the tree",
				b.procs[c.Key.size], c.Key.mech, c.Decisions, ref.Key.mech, ref.Decisions)
		}
	}
	return nil
}

func (b *simScaleBench) layers(tr *tracer, m metrics) error {
	rounds, traced := float64(b.rounds), float64(b.traced)
	var wall, events float64
	for key, a := range b.acc {
		m["sim.wall_s."+string(key.mech)] += a.wall / rounds
		m["sim.events."+string(key.mech)] += a.events / rounds
		wall += a.wall
		events += a.events
	}
	for si, n := range simSizes {
		var w, ev float64
		for _, mech := range core.Mechanisms() {
			w += b.acc[simKey{si, mech}].wall
			ev += b.acc[simKey{si, mech}].events
		}
		m[fmt.Sprintf("sim.host_ns_per_event.p%d", n)] = w / ev * 1e9
	}
	m["sim.events_per_s"] = events / wall
	for _, c := range b.first {
		mech := string(c.Key.mech)
		m["sim.makespan_s"] += c.Makespan
		m["core.state_msgs."+mech] += float64(c.StateMsgs)
		m["core.state_bytes."+mech] += c.StateBytes
		m["core.snapshot.rounds"] += float64(c.SnapRounds)
		m["core.snapshot.restarts"] += float64(c.SnapRests)
	}
	m["solver.new_app_s"] = tr.total("solver.new_app") / traced
	m["sim.run_app_s"] = tr.total("sim.run_app") / traced
	m["sim.engine.ns_per_event"] = probeEngine(b.e)
	probeCore(b.e, m)
	return nil
}

func (b *simScaleBench) stop() {}
