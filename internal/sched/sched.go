// Package sched implements the dynamic scheduling strategies of §4.2: the
// slave selections taken by Type 2 masters based on the view provided by a
// load-exchange mechanism.
//
//   - the workload-based strategy (§4.2.2) selects the slaves giving the
//     best balance of remaining floating-point work, with an irregular 1D
//     row blocking and granularity constraints (minimum share for
//     performance, maximum share for communication-buffer size);
//   - the memory-based strategy (§4.2.1) selects slaves for the best
//     balance of active memory and adds a memory-aware task selection
//     that postpones ready tasks whose activation would hurt the balance.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/tree"
)

// Share is one slave's part of a Type 2 front: Rows rows of the Schur
// complement.
type Share struct {
	Proc int32
	Rows int32
}

// Strategy is a slave-selection policy. The two paper strategies share the
// machinery and differ in the balanced metric and the task-selection
// constraint.
type Strategy struct {
	// Metric is the load quantity being balanced.
	Metric core.Metric
	// MinRows is the granularity floor: a slave receives at least this
	// many rows (performance / buffer constraints, §4.2.2).
	MinRows int32
	// MaxRows caps one slave's share (internal communication buffers).
	MaxRows int32
	// MaxSlaves caps the number of selected slaves (0 = no cap).
	MaxSlaves int
	// TaskGamma, for the memory strategy, bounds how far above the mean
	// memory a processor may go by activating a task (§4.2.1's
	// memory-aware task selection). Zero disables the constraint.
	TaskGamma float64
}

// Workload returns the §4.2.2 strategy.
func Workload() *Strategy {
	return &Strategy{Metric: core.Workload, MinRows: 16, MaxRows: 4096}
}

// Memory returns the §4.2.1 strategy.
func Memory() *Strategy {
	return &Strategy{Metric: core.Memory, MinRows: 16, MaxRows: 4096, TaskGamma: 1.6}
}

// Name returns "workload" or "memory".
func (s *Strategy) Name() string { return s.Metric.String() }

// rowCost returns the per-row increase of the balanced metric when a
// slave takes one Schur row of the front.
func (s *Strategy) rowCost(nfront, npiv int32, sym bool) float64 {
	if s.Metric == core.Memory {
		return tree.SlaveBlockEntries(nfront, npiv, 1, sym)
	}
	return tree.SlaveFlops(nfront, npiv, 1, sym)
}

// SelectSlaves chooses slaves and row counts for a Type 2 front mastered
// by master, using the view's estimates of the balanced metric. The
// returned shares cover exactly the Schur rows (Nfront-Npiv), each within
// [MinRows, MaxRows] (the last slave may exceed MinRows slack when the
// front is small). The selection is the irregular 1D row blocking of the
// paper: slaves with lower estimated load receive more rows
// (water-filling toward a common level).
func (s *Strategy) SelectSlaves(view *core.View, master int, nfront, npiv int32, sym bool) []Share {
	return s.SelectSlavesAmong(view, master, nil, nfront, npiv, sym)
}

// SelectSlavesAmong restricts the selection to the given candidate ranks
// (nil = all processes but the master). Candidate lists come from the
// static mapping's proportional intervals and enable the partial-snapshot
// extension: only processes that can be selected need to be consulted.
func (s *Strategy) SelectSlavesAmong(view *core.View, master int, candidates []int32, nfront, npiv int32, sym bool) []Share {
	rows := nfront - npiv
	if rows <= 0 {
		return nil
	}
	n := view.N()
	if n <= 1 {
		return nil // no other process: the master factors the whole front
	}
	type cand struct {
		proc int32
		load float64
	}
	var buf [64]cand // a small cluster's candidates stay on the stack
	cands := buf[:0]
	if candidates == nil {
		cands = slices.Grow(cands, n-1)
		for p := 0; p < n; p++ {
			if p == master {
				continue
			}
			cands = append(cands, cand{int32(p), view.Metric(p, s.Metric)})
		}
	} else {
		cands = slices.Grow(cands, len(candidates))
		for _, p := range candidates {
			if int(p) == master || p < 0 || int(p) >= n {
				continue
			}
			cands = append(cands, cand{p, view.Metric(int(p), s.Metric)})
		}
		if len(cands) == 0 {
			return nil
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.load != b.load {
			return cmp.Compare(a.load, b.load)
		}
		return cmp.Compare(a.proc, b.proc)
	})

	// Number of slaves: enough to respect MaxRows, few enough to respect
	// MinRows, bounded by MaxSlaves and the candidate count.
	k := int((rows + s.MaxRows - 1) / s.MaxRows) // floor for buffer limit
	if k < 1 {
		k = 1
	}
	if balanceK := int(rows / maxI32(s.MinRows, 1)); balanceK < len(cands) {
		// Use as many slaves as granularity admits: best balance.
		if balanceK > k {
			k = balanceK
		}
	} else {
		k = len(cands)
	}
	if s.MaxSlaves > 0 && k > s.MaxSlaves {
		k = s.MaxSlaves
	}
	if k > len(cands) {
		k = len(cands)
	}
	if k < 1 {
		k = 1
	}

	rc := s.rowCost(nfront, npiv, sym)
	if rc <= 0 {
		rc = 1
	}
	// Water-fill toward the common level T = (Σ load + rows·rc) / k.
	var sum float64
	for i := 0; i < k; i++ {
		sum += cands[i].load
	}
	level := (sum + float64(rows)*rc) / float64(k)
	shares := make([]Share, 0, k)
	assigned := int32(0)
	for i := 0; i < k; i++ {
		want := int32((level - cands[i].load) / rc)
		if want < 0 {
			want = 0
		}
		if want > s.MaxRows {
			want = s.MaxRows
		}
		if rem := rows - assigned; want > rem {
			want = rem
		}
		shares = append(shares, Share{Proc: cands[i].proc, Rows: want})
		assigned += want
	}
	// Distribute any remainder to the least-loaded slaves, respecting
	// MaxRows; overflow beyond all caps goes to the least loaded anyway
	// (the buffer constraint is soft in the paper's sense).
	for rem := rows - assigned; rem > 0; {
		progressed := false
		for i := 0; i < k && rem > 0; i++ {
			if shares[i].Rows < s.MaxRows {
				add := minI32(rem, s.MaxRows-shares[i].Rows)
				shares[i].Rows += add
				rem -= add
				progressed = true
			}
		}
		if !progressed {
			shares[0].Rows += rem
			rem = 0
		}
	}
	// Enforce MinRows: fold slaves with tiny shares into their
	// predecessors (deterministically: give to the least loaded).
	out := shares[:0]
	var orphan int32
	for _, sh := range shares {
		if sh.Rows == 0 {
			continue
		}
		if sh.Rows < s.MinRows && len(out) > 0 {
			orphan += sh.Rows
			continue
		}
		out = append(out, sh)
	}
	if len(out) == 0 {
		// Degenerate: everything was tiny; give all rows to the least
		// loaded candidate.
		return []Share{{Proc: cands[0].proc, Rows: rows}}
	}
	out[0].Rows += orphan
	return out
}

// CanActivate implements the memory-aware task selection of §4.2.1: a
// ready task whose front would push this processor's active memory too
// far above the mean is postponed (the solver falls back to activating it
// anyway when nothing else can make progress, to preserve liveness).
func (s *Strategy) CanActivate(view *core.View, rank int, frontEntries float64) bool {
	if s.TaskGamma <= 0 || s.Metric != core.Memory {
		return true
	}
	n := view.N()
	var sum float64
	for p := 0; p < n; p++ {
		sum += view.Metric(p, core.Memory)
	}
	mean := sum / float64(n)
	if mean == 0 {
		return true // idle system: nothing to balance against yet
	}
	// Compare against the post-activation mean: activating the front
	// raises the system mean by frontEntries/n too.
	projected := view.Metric(rank, core.Memory) + frontEntries
	return projected <= s.TaskGamma*(mean+frontEntries/float64(n))
}

// Validate checks a selection against the front it was made for.
func ValidateShares(shares []Share, nfront, npiv int32, master int) error {
	var total int32
	for i, sh := range shares {
		if sh.Rows <= 0 {
			return fmt.Errorf("sched: empty share for proc %d", sh.Proc)
		}
		if sh.Proc == int32(master) {
			return fmt.Errorf("sched: master %d selected as its own slave", master)
		}
		// A selection names at most procs−1 slaves (127 on Table 5's
		// largest rows): a scan of the shares before this one is short
		// and, unlike a set, allocates nothing on the decision path.
		for _, prev := range shares[:i] {
			if prev.Proc == sh.Proc {
				return fmt.Errorf("sched: proc %d selected twice", sh.Proc)
			}
		}
		total += sh.Rows
	}
	if want := nfront - npiv; total != want {
		return fmt.Errorf("sched: shares cover %d rows, want %d", total, want)
	}
	return nil
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
