package core

import (
	"slices"
	"testing"
)

// allOtherRanks is every rank but rank, ascending: the order the
// mechanisms' send loops visit their peers in.
func allOtherRanks(n, rank int) []int {
	out := make([]int, 0, n-1)
	for p := 0; p < n; p++ {
		if p != rank {
			out = append(out, p)
		}
	}
	return out
}

// sentTo drains what rank `from` queued on the fabric without delivering
// it, asserting every message has the given kind, and returns the
// recipients in send order.
func sentTo(t *testing.T, net *fakeNet, from, kind int) []int {
	t.Helper()
	var to []int
	for _, m := range net.queue {
		if m.from != from || m.kind != kind {
			t.Fatalf("unexpected %s %d→%d, want only %s from %d", KindName(m.kind), m.from, m.to, KindName(kind), from)
		}
		to = append(to, m.to)
	}
	net.queue = nil
	return to
}

func TestNoMoreMasterReachesExactlyThePeers(t *testing.T) {
	// §2.3: the announcement goes to all n-1 ranks, which all send this
	// rank updates — as fanOut's loop of Sends, ascending.
	const n = 9
	for _, mech := range []Mech{MechNaive, MechIncrements} {
		for r := 0; r < n; r++ {
			net := newFakeNet(n)
			x, err := New(mech, n, r, Config{NoMoreMasterOpt: true})
			if err != nil {
				t.Fatal(err)
			}
			x.NoMoreMaster(net.ctx(r))
			if got, want := sentTo(t, net, r, KindNoMoreMaster), allOtherRanks(n, r); !slices.Equal(got, want) {
				t.Fatalf("%s: rank %d announced to %v, want %v", mech, r, got, want)
			}
		}
	}
}

func TestUpdatesAndReservationsHonourNoMoreMaster(t *testing.T) {
	// flush, maybeBroadcast and Commit walk every other rank, ascending,
	// minus the ranks that declared No_more_master — except that a
	// reservation still reaches a pruned rank it selects.
	const n, quitter = 9, 4
	for _, mech := range []Mech{MechNaive, MechIncrements} {
		net := newFakeNet(n)
		for r := 0; r < n; r++ {
			x, err := New(mech, n, r, Config{NoMoreMasterOpt: true})
			if err != nil {
				t.Fatal(err)
			}
			net.exs[r] = x
			x.Init(net.ctx(r), Load{})
		}
		net.exs[quitter].NoMoreMaster(net.ctx(quitter))
		net.drain(100)
		for r := 0; r < n; r++ {
			if r == quitter {
				continue
			}
			all := allOtherRanks(n, r)
			pruned := slices.DeleteFunc(slices.Clone(all), func(p int) bool { return p == quitter })
			net.exs[r].LocalChange(net.ctx(r), Load{Workload: 5}, false)
			if got := sentTo(t, net, r, KindUpdate); !slices.Equal(got, pruned) {
				t.Fatalf("%s: rank %d updated %v, want %v", mech, r, got, pruned)
			}
			if mech != MechIncrements {
				continue
			}
			net.exs[r].Commit(net.ctx(r), []Assignment{{Proc: int32(pruned[0]), Delta: Load{Workload: 1}}})
			if got := sentTo(t, net, r, KindMasterToAll); !slices.Equal(got, pruned) {
				t.Fatalf("%s: rank %d reserved to %v, want %v", mech, r, got, pruned)
			}
			net.exs[r].Commit(net.ctx(r), []Assignment{{Proc: quitter, Delta: Load{Workload: 1}}})
			if got := sentTo(t, net, r, KindMasterToAll); !slices.Equal(got, all) {
				t.Fatalf("%s: rank %d reserved to %v, want %v (the selected quitter included)", mech, r, got, all)
			}
		}
	}
}

// TestSnapshotNoMoreMasterIsSilent: the demand-driven scheme sends no
// load information unsolicited, so its No_more_master announcement has
// nothing to prune. After a full snapshot round it sends nothing — no
// Send on the plain context, no Multicast on the multicast one — and
// leaves the view and the Stats as they were.
func TestSnapshotNoMoreMasterIsSilent(t *testing.T) {
	const n, rank = 70, 5
	for _, multi := range []bool{false, true} {
		net := newFakeNet(n)
		mc := &multicastCtx{fakeCtx: net.ctx(rank)}
		var ctx Context = net.ctx(rank)
		if multi {
			ctx = mc
		}
		x := NewSnapshot(n, rank, Config{NoMoreMasterOpt: true})
		x.Init(ctx, Load{Workload: 3})
		ready := false
		x.Acquire(ctx, func() { ready = true })
		for p := 0; p < n; p++ {
			if p != rank {
				x.HandleMessage(ctx, p, KindSnp, SnpPayload{Req: 1, Load: Load{Workload: float64(p)}})
			}
		}
		if !ready {
			t.Fatalf("multicast %v: every peer replied, the view is not ready", multi)
		}
		x.Commit(ctx, []Assignment{{Proc: 7, Delta: Load{Workload: 2}}})
		net.queue = nil
		calls := mc.calls
		view, stats := x.View().Snapshot(), x.Stats()
		if stats.SnapshotsInitiated != 1 {
			t.Fatalf("multicast %v: %d snapshots initiated, want the round's 1", multi, stats.SnapshotsInitiated)
		}

		x.NoMoreMaster(ctx)
		if len(net.queue) != 0 || mc.calls != calls {
			t.Errorf("multicast %v: No_more_master sent %d messages in %d multicasts, want none",
				multi, len(net.queue), mc.calls-calls)
		}
		if got := x.View().Snapshot(); !slices.Equal(got, view) {
			t.Errorf("multicast %v: No_more_master moved the view %v → %v", multi, view, got)
		}
		if got := x.Stats(); got != stats {
			t.Errorf("multicast %v: No_more_master moved the stats %+v → %+v", multi, stats, got)
		}
	}
}
