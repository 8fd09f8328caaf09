package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/ordering"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
)

// tablesScale shrinks the paper's matrices so that one cold pass over
// Table 4 at 32 processes and Tables 5-6 at 64 takes about two seconds
// (Config.Scale 1 takes ten) and a run repeats it several times.
const tablesScale = 0.2

var (
	table4Procs   = []int{32}
	table567Procs = []int{64}
)

// tablesBench regenerates the paper's tables from a cold Lab, as every
// `loadex table4|table5|table6` invocation does.
type tablesBench struct {
	e   *env
	cfg experiments.Config

	// first holds round one's rows; every later round must equal them.
	first  *tablesRows
	rounds int
	// labWall is the wall time of each untraced (Lab-driven) round.
	labWall []float64
	// replayed counts what the traced rounds' own pipeline saw.
	factorNNZ, decisions, simEvents float64
	replays                         int
}

type tablesRows struct {
	T4   []experiments.Table4Row
	T567 []experiments.Table567Row
}

func newTables(e *env) bench {
	cfg := experiments.DefaultConfig()
	cfg.Seed = e.seed
	cfg.Scale = tablesScale * e.size
	return &tablesBench{e: e, cfg: cfg}
}

// setup regenerates Tables 1-2 (every problem generated once): the part
// of a tables session that precedes the simulations.
func (b *tablesBench) setup() error {
	_, err := experiments.NewLab(b.cfg).Matrices(table4Procs[0])
	return err
}

func (b *tablesBench) round(tr *tracer) (roundOut, error) {
	var rows tablesRows
	out := roundOut{attempted: (3*len(sparse.Set1()))*len(table4Procs) + 2*len(sparse.Set2())*len(table567Procs)}
	err := b.e.guard("tables round", func() error {
		var err error
		if tr != nil {
			out.parts, err = b.replay(tr, &rows)
			return err
		}
		lab := experiments.NewLab(b.cfg)
		t0 := time.Now()
		if rows.T4, err = lab.Table4(table4Procs); err != nil {
			return err
		}
		t1 := time.Now()
		if rows.T567, err = lab.Table567(table567Procs, false); err != nil {
			return err
		}
		out.parts = []float64{t1.Sub(t0).Seconds(), time.Since(t1).Seconds()}
		b.labWall = append(b.labWall, out.wall())
		return nil
	})
	if err != nil {
		out.failed = out.attempted
		return out, err
	}
	b.rounds++
	if b.first == nil {
		b.first = &rows
	} else if tr == nil && !reflect.DeepEqual(*b.first, rows) { // replay compared its own rows
		out.failed = out.attempted
		return out, fmt.Errorf("round %d rows differ from round 1 on the same seed", b.rounds)
	}
	out.work = float64(3*len(b.first.T4) + 2*len(b.first.T567))
	for _, r := range b.first.T567 {
		out.stateMsgs += float64(r.Msgs.Increments + r.Msgs.Snapshot)
	}
	out.lat = []float64{out.wall()}
	return out, nil
}

// replay regenerates the same rows as Lab.Table4 and Lab.Table567 by
// calling each layer's public entry point in the Lab's order, with a
// span around every call.
func (b *tablesBench) replay(tr *tracer, rows *tablesRows) ([]float64, error) {
	analyses := map[string]*symbolic.Analysis{}
	cell := 0
	runCell := func(pr *sparse.Problem, np int, mech core.Mech, strat *sched.Strategy) (*solver.Result, error) {
		cell++
		root := tr.begin("table.cell", 0, cell, 0)
		defer tr.end(root)
		scale := b.cfg.Scale * b.cfg.ScalePerProcs[np]
		key := fmt.Sprintf("%s@%.4f", pr.Name, scale)
		a := analyses[key]
		if a == nil {
			s := tr.begin("sparse.generate", root, cell, 0)
			p, g := pr.Generate(scale, b.cfg.Seed)
			tr.end(s)
			s = tr.begin("ordering.order", root, cell, 0)
			perm, err := ordering.Order(g, ordering.MethodAuto)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin("symbolic.analyze", root, cell, 0)
			a, err = symbolic.AnalyzeGraph(g, perm, p.Kind == sparse.Sym, symbolic.DefaultAmalg())
			tr.end(s)
			if err != nil {
				return nil, err
			}
			analyses[key] = a
			b.factorNNZ += float64(a.FactorEntries)
		}
		s := tr.begin("tree.build_split", root, cell, 0)
		t := tree.Split(tree.Build(a), tree.DefaultSplit())
		tr.end(s)
		s = tr.begin("mapping.map", root, cell, 0)
		m, err := mapping.Map(t, mapping.DefaultConfig(np))
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("solver.run", root, cell, 0)
		res, err := solver.Run(m, solver.DefaultParams(mech, strat), &sim.AppRunner{})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		b.decisions += float64(res.Decisions)
		b.simEvents += float64(res.Steps)
		return res, nil
	}

	t0 := time.Now()
	for _, np := range table4Procs {
		for _, pr := range sparse.Set1() {
			row := experiments.Table4Row{Name: pr.Name, Procs: np}
			for _, mech := range core.Mechanisms() {
				res, err := runCell(pr, np, mech, sched.Memory())
				if err != nil {
					return nil, err
				}
				switch mech {
				case core.MechIncrements:
					row.Measured.Increments = res.MaxPeakMem / 1e6
				case core.MechSnapshot:
					row.Measured.Snapshot = res.MaxPeakMem / 1e6
				case core.MechNaive:
					row.Measured.Naive = res.MaxPeakMem / 1e6
				}
			}
			rows.T4 = append(rows.T4, row)
		}
	}
	t1 := time.Now()
	for _, np := range table567Procs {
		for _, pr := range sparse.Set2() {
			row := experiments.Table567Row{Name: pr.Name, Procs: np}
			for _, mech := range []core.Mech{core.MechIncrements, core.MechSnapshot} {
				res, err := runCell(pr, np, mech, sched.Workload())
				if err != nil {
					return nil, err
				}
				if mech == core.MechIncrements {
					row.Time.Increments, row.Msgs.Increments = res.Time, res.StateMsgs
				} else {
					row.Time.Snapshot, row.Msgs.Snapshot = res.Time, res.StateMsgs
				}
			}
			rows.T567 = append(rows.T567, row)
		}
	}
	parts := []float64{t1.Sub(t0).Seconds(), time.Since(t1).Seconds()}
	b.replays++

	// The replay must be the Lab's computation, not a look-alike: the
	// figures the tables print have to match an untraced round's.
	if b.first == nil {
		return nil, fmt.Errorf("traced round before an untraced one")
	}
	for i, r := range b.first.T4 {
		if len(rows.T4) != len(b.first.T4) || r.Name != rows.T4[i].Name || r.Measured != rows.T4[i].Measured {
			return nil, fmt.Errorf("replayed Table 4 row %d differs from the Lab's: %+v vs %+v", i, rows.T4[i], r)
		}
	}
	for i, r := range b.first.T567 {
		if len(rows.T567) != len(b.first.T567) || r.Name != rows.T567[i].Name || r.Time != rows.T567[i].Time || r.Msgs != rows.T567[i].Msgs {
			return nil, fmt.Errorf("replayed Table 5/6 row %d differs from the Lab's: %+v vs %+v", i, rows.T567[i], r)
		}
	}
	return parts, nil
}

func (b *tablesBench) check() error {
	if b.first == nil {
		return fmt.Errorf("no round completed")
	}
	if got, want := len(b.first.T4), len(sparse.Set1())*len(table4Procs); got != want {
		return fmt.Errorf("Table 4 has %d rows, want %d", got, want)
	}
	if got, want := len(b.first.T567), len(sparse.Set2())*len(table567Procs); got != want {
		return fmt.Errorf("Tables 5-6 have %d rows, want %d", got, want)
	}
	for _, r := range b.first.T567 {
		if r.Msgs.Snapshot <= 0 || r.Msgs.Snapshot >= r.Msgs.Increments {
			return fmt.Errorf("Table 6 %s@%d: snapshot sent %d state messages, increments %d; the paper's ordering is snapshot < increments",
				r.Name, r.Procs, r.Msgs.Snapshot, r.Msgs.Increments)
		}
	}
	return nil
}

func (b *tablesBench) layers(tr *tracer, m metrics) error {
	if b.replays == 0 {
		return fmt.Errorf("no traced round ran")
	}
	n := float64(b.replays)
	var attributed float64
	for span, name := range map[string]string{
		"sparse.generate":  "sparse.generate_s",
		"ordering.order":   "ordering.order_s",
		"symbolic.analyze": "symbolic.analyze_s",
		"tree.build_split": "tree.build_split_s",
		"mapping.map":      "mapping.map_s",
		"solver.run":       "solver.run_s",
	} {
		m[name] = tr.total(span) / n
		attributed += m[name]
	}
	m["symbolic.factor_nnz"] = b.factorNNZ / n
	m["mapping.decisions"] = b.decisions / n
	m["solver.sim_events"] = b.simEvents / n
	m["experiments.unattributed_share"] = 1 - attributed/median(b.labWall)
	return nil
}

func (b *tablesBench) stop() {}
