package core

// Elector is the leader-election criterion used to sequentialize
// concurrent snapshots (§3). Given a candidate and the current leader
// (-1 when undefined), it returns the new leader. With no current leader
// that is the candidate, so Snapshot only calls it with a leader to beat.
//
// Liveness requires every process to apply the *same total order* over
// initiators: with inconsistent orders two initiators can delay each
// other's replies forever. The paper uses process rank; its conclusion
// singles out the criterion as worth studying, which the ablation
// benchmarks do with the alternatives below (all consistent orders).
type Elector func(candidate, current int32, v *View) int32

// ElectMinRank is the paper's criterion: the lowest rank wins.
func ElectMinRank(candidate, current int32, _ *View) int32 {
	if current < 0 || candidate < current {
		return candidate
	}
	return current
}

// ElectMaxRank prefers the highest rank: a trivially different total
// order used to check the protocol is not rank-0 biased.
func ElectMaxRank(candidate, current int32, _ *View) int32 {
	if current < 0 || candidate > current {
		return candidate
	}
	return current
}

// ElectByKey returns an elector preferring the lowest key, with rank
// breaking ties. Keys must be identical on every process (e.g. the static
// initial loads of the mapping): the order is then consistent and the
// protocol stays live. A natural choice is "least statically loaded
// master first".
func ElectByKey(key []float64) Elector {
	return func(candidate, current int32, _ *View) int32 {
		if current < 0 {
			return candidate
		}
		kc, ku := key[candidate], key[current]
		switch {
		case kc < ku:
			return candidate
		case kc > ku:
			return current
		default:
			return ElectMinRank(candidate, current, nil)
		}
	}
}
