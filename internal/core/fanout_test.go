package core

import (
	"reflect"
	"slices"
	"testing"
)

// multicastCtx is a fakeCtx that also offers the one-pass fan-out,
// played on the fabric as the ascending loop of Sends it stands for.
type multicastCtx struct {
	*fakeCtx
	calls int
	skips [][]uint64 // each call's skip set
}

func (c *multicastCtx) Multicast(kind int, payload any, bytes float64, skip []uint64) int {
	c.calls++
	c.skips = append(c.skips, skip)
	sent := 0
	for to := 0; to < c.net.n; to++ {
		if to != c.rank && (skip == nil || skip[to/64]&(1<<(to%64)) == 0) {
			c.Send(to, kind, payload, bytes)
			sent++
		}
	}
	return sent
}

// TestFanOutMulticastMatchesSendLoop: the two fan-outs — updates and
// reservations — reach the same peers in the same order whether the
// context multicasts or only sends, across several bitset words, with
// No_more_master pruning on and off. A scoped snapshot round (a scope
// that wraps around the ring of ranks and repeats a rank) sends to its
// members one by one either way.
func TestFanOutMulticastMatchesSendLoop(t *testing.T) {
	const n, rank = 130, 0
	quitters := []int{3, 64, 65, 129}
	scope := []int32{127, 128, 129, 0, 1, 2, 5, 5, 3}
	type result struct {
		queue []fakeMsg
		stats Stats
	}
	play := func(mech Mech, opt, multi bool) (result, int) {
		net := newFakeNet(n)
		var ctx Context = net.ctx(rank)
		mc := &multicastCtx{fakeCtx: net.ctx(rank)}
		if multi {
			ctx = mc
		}
		x, err := New(mech, n, rank, Config{Threshold: Load{Workload: 1}, NoMoreMasterOpt: opt})
		if err != nil {
			t.Fatal(err)
		}
		x.Init(ctx, Load{})
		for _, q := range quitters {
			x.HandleMessage(net.ctx(q), q, KindNoMoreMaster, nil)
		}
		if sx, ok := x.(ScopedExchanger); ok {
			sx.AcquireScoped(ctx, scope, func() {})
		} else {
			x.LocalChange(ctx, Load{Workload: 5}, false)
			x.Commit(ctx, []Assignment{{Proc: 64, Delta: Load{Workload: 2}}, {Proc: 7, Delta: Load{Workload: 2}}})
		}
		return result{net.queue, x.Stats()}, mc.calls
	}
	for _, mech := range Mechanisms() {
		for _, opt := range []bool{false, true} {
			want, _ := play(mech, opt, false)
			got, calls := play(mech, opt, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, No_more_master %v: multicast sent %d messages (%+v), the Send loop %d (%+v)",
					mech, opt, len(got.queue), got.stats, len(want.queue), want.stats)
			}
			// Updates and reservations are one fan-out each; a scope
			// is sent member by member.
			if wantCalls := map[Mech]int{MechNaive: 1, MechIncrements: 2, MechSnapshot: 0}[mech]; calls != wantCalls {
				t.Fatalf("%s: %d multicasts, want %d", mech, calls, wantCalls)
			}
			if len(want.queue) == 0 {
				t.Fatalf("%s: nothing sent", mech)
			}
		}
	}
	// The pruning itself: an update skips the quitters, a reservation
	// still reaches the quitter it selects.
	got, _ := play(MechIncrements, true, true)
	var updates, reservations []int
	for _, m := range got.queue {
		if m.kind == KindUpdate {
			updates = append(updates, m.to)
		} else {
			reservations = append(reservations, m.to)
		}
	}
	if len(updates) != n-1-len(quitters) || slices.Contains(updates, 64) {
		t.Fatalf("update reached %d peers (64 among them: %v), want %d", len(updates), slices.Contains(updates, 64), n-1-len(quitters))
	}
	if len(reservations) != n-len(quitters) || !slices.Contains(reservations, 64) || slices.Contains(reservations, 65) {
		t.Fatalf("reservation reached %d peers, want %d: the selected quitter 64 and not 65", len(reservations), n-len(quitters))
	}
}

// TestFullFanOutsAreOneMulticast: the fan-outs to every peer —
// No_more_master under naive and increments, and a full snapshot
// round's start_snp and end_snp — are one Multicast with a nil skip set
// each on a multicast context, and the ascending loop of Sends to every
// peer on a plain one.
func TestFullFanOutsAreOneMulticast(t *testing.T) {
	const n, rank = 70, 5
	announce := func(x Exchanger, ctx Context) { x.NoMoreMaster(ctx) }
	round := func(x Exchanger, ctx Context) {
		ready := false
		x.Acquire(ctx, func() { ready = true })
		for p := 0; p < n; p++ {
			if p != rank {
				x.HandleMessage(ctx, p, KindSnp, SnpPayload{Req: 1})
			}
		}
		if !ready {
			t.Fatal("snapshot: every peer replied, the view is not ready")
		}
		x.Commit(ctx, nil)
	}
	cases := []struct {
		mech  Mech
		kinds []int
		run   func(Exchanger, Context)
	}{
		{MechNaive, []int{KindNoMoreMaster}, announce},
		{MechIncrements, []int{KindNoMoreMaster}, announce},
		{MechSnapshot, []int{KindStartSnp, KindEndSnp}, round},
	}
	var peers []int
	for p := 0; p < n; p++ {
		if p != rank {
			peers = append(peers, p)
		}
	}
	for _, tc := range cases {
		for _, multi := range []bool{false, true} {
			net := newFakeNet(n)
			mc := &multicastCtx{fakeCtx: net.ctx(rank)}
			var ctx Context = net.ctx(rank)
			if multi {
				ctx = mc
			}
			x, err := New(tc.mech, n, rank, Config{NoMoreMasterOpt: true})
			if err != nil {
				t.Fatal(err)
			}
			x.Init(ctx, Load{})
			tc.run(x, ctx)
			var want []fakeMsg
			for _, kind := range tc.kinds {
				for _, p := range peers {
					want = append(want, fakeMsg{from: rank, to: p, kind: kind})
				}
			}
			got := make([]fakeMsg, len(net.queue))
			for i, m := range net.queue {
				got[i] = fakeMsg{from: m.from, to: m.to, kind: m.kind}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, multicast %v: sent %d messages %v, want %d: every peer ascending, per fan-out",
					tc.mech, multi, len(got), got, len(want))
			}
			if !multi {
				continue
			}
			if mc.calls != len(tc.kinds) {
				t.Fatalf("%s: %d multicasts, want %d", tc.mech, mc.calls, len(tc.kinds))
			}
			for i, skip := range mc.skips {
				if skip != nil {
					t.Fatalf("%s: multicast %d skips %v, want a nil skip set", tc.mech, i, skip)
				}
			}
		}
	}
}

// nopCtx is a Context that sends nothing; nopMulticastCtx also offers
// the multicast.
type nopCtx struct{ n int }

func (c nopCtx) Rank() int                   { return 0 }
func (c nopCtx) N() int                      { return c.n }
func (c nopCtx) Now() float64                { return 0 }
func (c nopCtx) Send(int, int, any, float64) {}

type nopMulticastCtx struct{ nopCtx }

func (nopMulticastCtx) Multicast(int, any, float64, []uint64) int { return 0 }

// TestIncrementsCommitAllocs: a reservation allocates only its boxed
// payload, whichever way it fans out; the selected-slave set is the
// mechanism's kept bitset.
func TestIncrementsCommitAllocs(t *testing.T) {
	const n = 256
	assignments := []Assignment{{Proc: 9, Delta: Load{Workload: 1}}, {Proc: 200, Delta: Load{Workload: 1}}}
	for _, ctx := range []Context{nopCtx{n}, nopMulticastCtx{nopCtx{n}}} {
		x := NewIncrements(n, 0, Config{NoMoreMasterOpt: true})
		x.Init(ctx, Load{})
		x.HandleMessage(ctx, 200, KindNoMoreMaster, nil)
		if got := testing.AllocsPerRun(100, func() { x.Commit(ctx, assignments) }); got != 1 {
			t.Errorf("%T: Commit allocates %v times, want 1 (the payload)", ctx, got)
		}
	}
}
