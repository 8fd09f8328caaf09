package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/tree"
)

// ---- Figure 1 ------------------------------------------------------------

// fig1Fabric is a minimal deterministic in-memory fabric used to replay
// the Figure 1 scenario outside the full solver.
type fig1Fabric struct {
	n     int
	exs   []core.Exchanger
	queue []fig1Msg
	now   float64
}

type fig1Msg struct {
	from, to, kind int
	payload        any
}

type fig1Ctx struct {
	f    *fig1Fabric
	rank int
}

func (c *fig1Ctx) Rank() int    { return c.rank }
func (c *fig1Ctx) N() int       { return c.f.n }
func (c *fig1Ctx) Now() float64 { return c.f.now }
func (c *fig1Ctx) Send(to int, kind int, payload any, bytes float64) {
	c.f.queue = append(c.f.queue, fig1Msg{c.rank, to, kind, payload})
}

func (f *fig1Fabric) drain() {
	for len(f.queue) > 0 {
		m := f.queue[0]
		f.queue = f.queue[1:]
		f.now += 0.001
		f.exs[m.to].HandleMessage(&fig1Ctx{f, m.to}, m.from, m.kind, m.payload)
	}
}

// Figure1 replays the paper's Figure 1 scenario for one mechanism and
// reports what P1 believed about P2's load at its own decision time,
// after P0 had already assigned work to the busy P2. Under the naive
// mechanism the belief is stale; under increments the Master_To_All has
// corrected it; under snapshots the sequentialized snapshot observes it.
func Figure1(w io.Writer, mech core.Mech) error {
	const n = 3
	f := &fig1Fabric{n: n, exs: make([]core.Exchanger, n)}
	for r := 0; r < n; r++ {
		x, err := core.New(mech, n, r, core.Config{Threshold: core.Load{core.Workload: 1}})
		if err != nil {
			return err
		}
		f.exs[r] = x
		x.Init(&fig1Ctx{f, r}, core.Load{})
	}
	fmt.Fprintf(w, "Figure 1 scenario, mechanism = %s\n", mech)
	fmt.Fprintln(w, "  t1: P2 starts a long task (treats no further message until done)")
	fmt.Fprintln(w, "  t2: P0 selects slaves and assigns 100 units of work to P2")

	assign := []core.Assignment{{Proc: 2, Delta: core.Load{core.Workload: 100}}}
	done0 := false
	f.exs[0].Acquire(&fig1Ctx{f, 0}, func() {
		done0 = true
		f.exs[0].Commit(&fig1Ctx{f, 0}, assign)
	})
	f.drain()
	if !done0 {
		return fmt.Errorf("experiments: P0's decision never completed")
	}

	fmt.Fprintln(w, "  t3: P1 takes its own decision and consults its view of P2:")
	var seen float64
	done1 := false
	f.exs[1].Acquire(&fig1Ctx{f, 1}, func() {
		done1 = true
		seen = f.exs[1].View().Metric(2, core.Workload)
		f.exs[1].Commit(&fig1Ctx{f, 1}, nil)
	})
	f.drain()
	if !done1 {
		return fmt.Errorf("experiments: P1's decision never completed")
	}
	verdict := "STALE: P1 would select the already-loaded P2 again (the Figure 1 flaw)"
	if seen >= 100 {
		verdict = "COHERENT: P1 sees P0's assignment and avoids double-booking P2"
	}
	fmt.Fprintf(w, "      P1's view of P2 = %.0f (true load: 100) → %s\n", seen, verdict)
	return nil
}

// ---- Figure 2 ------------------------------------------------------------

// Figure2 renders the assembly-tree distribution of a small problem over
// four processes, in the spirit of the paper's Figure 2: node types
// (T1/T2/T3), masters and sequential subtrees.
func (l *Lab) Figure2(w io.Writer, name string) error {
	m, err := l.Mapping(name, 4)
	if err != nil {
		return err
	}
	t := m.Tree
	fmt.Fprintf(w, "Assembly tree of %s over 4 processes (Figure 2 style)\n", name)
	fmt.Fprintf(w, "nodes=%d  subtrees=%d  type2=%d\n", len(t.Nodes), len(m.SubtreeRoots), m.NumType2)
	t.RenderASCII(w, func(id int32) string {
		n := &t.Nodes[id]
		switch {
		case n.Subtree >= 0:
			return fmt.Sprintf("subtree %d on P%d", n.Subtree, m.Master[id])
		case n.Type == tree.Type2:
			return fmt.Sprintf("master P%d, slaves dynamic", m.Master[id])
		case n.Type == tree.Type3:
			return "2D static over all processes"
		default:
			return fmt.Sprintf("P%d", m.Master[id])
		}
	}, 8)
	return nil
}
