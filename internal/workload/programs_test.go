package workload

import "repro/internal/core"

// Program-set arithmetic the external tests check runs against.

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
