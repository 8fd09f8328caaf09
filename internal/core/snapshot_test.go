package core

import (
	"runtime"
	"testing"
	"testing/quick"
)

func mkSnapshot(t *testing.T, n int, elect Elector) (*fakeNet, []*Snapshot) {
	t.Helper()
	net := newFakeNet(n)
	exs := make([]*Snapshot, n)
	for r := 0; r < n; r++ {
		x := NewSnapshot(n, r, Config{Elect: elect})
		net.exs[r] = x
		exs[r] = x
		x.Init(net.ctx(r), Load{Workload: float64(10 * r)})
	}
	return net, exs
}

func TestSnapshotSingleInitiator(t *testing.T) {
	net, exs := mkSnapshot(t, 4, nil)
	completed := false
	exs[0].Acquire(net.ctx(0), func() {
		completed = true
		// At readiness the view holds everyone's exact state.
		for p := 1; p < 4; p++ {
			if got := exs[0].View().Metric(p, Workload); got != float64(10*p) {
				t.Fatalf("view[%d] = %v, want %v", p, got, 10*p)
			}
		}
		exs[0].Commit(net.ctx(0), []Assignment{{Proc: 2, Delta: Load{Workload: 5}}})
	})
	if !exs[0].Busy() {
		t.Fatal("initiator not busy during snapshot")
	}
	net.drain(1000)
	if !completed {
		t.Fatal("snapshot never completed")
	}
	for r := 0; r < 4; r++ {
		if exs[r].Busy() {
			t.Fatalf("proc %d still busy after end_snp", r)
		}
	}
	// The selected slave credited its state from master_to_slave.
	if got := exs[2].View().Load(2)[Workload]; got != 25 {
		t.Fatalf("slave load = %v, want 25", got)
	}
	st := exs[0].Stats()
	if st.SnapshotsInitiated != 1 || st.SnapshotTime <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotSingleProcessFastPath(t *testing.T) {
	net, exs := mkSnapshot(t, 1, nil)
	done := false
	exs[0].Acquire(net.ctx(0), func() { done = true })
	if !done {
		t.Fatal("n=1 Acquire must be synchronous")
	}
	exs[0].Commit(net.ctx(0), nil)
	if exs[0].Busy() {
		t.Fatal("n=1 never busy")
	}
}

func TestSnapshotBystandersBlockDuringSnapshot(t *testing.T) {
	net, exs := mkSnapshot(t, 3, nil)
	exs[0].Acquire(net.ctx(0), func() { exs[0].Commit(net.ctx(0), nil) })
	// Deliver only the start_snp messages.
	net.deliverNext(func(m fakeMsg) bool { return m.kind == KindStartSnp && m.to == 1 })
	if !exs[1].Busy() {
		t.Fatal("bystander must block after start_snp (it answered and waits)")
	}
	net.drain(1000)
	if exs[1].Busy() || exs[2].Busy() {
		t.Fatal("bystanders still busy after completion")
	}
}

func TestSnapshotConcurrentInitiatorsSequentialize(t *testing.T) {
	// Two simultaneous snapshots: the lower rank completes first, the
	// higher-rank initiator restarts with a new request id and completes
	// second, observing the first decision.
	net, exs := mkSnapshot(t, 4, nil)
	var order []int
	exs[0].Acquire(net.ctx(0), func() {
		order = append(order, 0)
		exs[0].Commit(net.ctx(0), []Assignment{{Proc: 3, Delta: Load{Workload: 100}}})
	})
	exs[1].Acquire(net.ctx(1), func() {
		order = append(order, 1)
		// P1's snapshot must observe P0's assignment to P3.
		if got := exs[1].View().Metric(3, Workload); got != 130 {
			t.Fatalf("second snapshot sees %v for P3, want 130 (30 + 100)", got)
		}
		exs[1].Commit(net.ctx(1), nil)
	})
	net.drain(5000)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("completion order = %v, want [0 1]", order)
	}
	if exs[1].Stats().SnapshotRestarts == 0 {
		t.Fatal("loser must have restarted its round")
	}
	for r := 0; r < 4; r++ {
		if exs[r].Busy() {
			t.Fatalf("proc %d busy after both snapshots", r)
		}
	}
}

func TestSnapshotMaxRankElection(t *testing.T) {
	net, exs := mkSnapshot(t, 3, ElectMaxRank)
	var order []int
	for _, r := range []int{0, 2} {
		r := r
		exs[r].Acquire(net.ctx(r), func() {
			order = append(order, r)
			exs[r].Commit(net.ctx(r), nil)
		})
	}
	net.drain(5000)
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("order = %v, want rank 2 to win under max-rank election", order)
	}
}

func TestSnapshotElectByKey(t *testing.T) {
	// Rank 2 has the smallest key, so it must win the election.
	key := []float64{5, 4, 1}
	net, exs := mkSnapshot(t, 3, ElectByKey(key))
	var order []int
	for _, r := range []int{0, 2} {
		r := r
		exs[r].Acquire(net.ctx(r), func() {
			order = append(order, r)
			exs[r].Commit(net.ctx(r), nil)
		})
	}
	net.drain(5000)
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("order = %v, want rank 2 first (smallest key)", order)
	}
}

func TestSnapshotStaleRepliesIgnored(t *testing.T) {
	net, exs := mkSnapshot(t, 3, nil)
	done := false
	exs[1].Acquire(net.ctx(1), func() { done = true })
	// Inject a stale reply with a wrong request id: must be ignored.
	exs[1].HandleMessage(net.ctx(1), 0, KindSnp, SnpPayload{Req: 999, Load: Load{Workload: 77}})
	if done {
		t.Fatal("stale reply advanced the collection")
	}
	if got := exs[1].View().Metric(0, Workload); got == 77 {
		t.Fatal("stale reply stored")
	}
	net.drain(1000)
	if !done {
		t.Fatal("snapshot did not complete")
	}
	exs[1].Commit(net.ctx(1), nil)
	net.drain(1000)
}

func TestSnapshotPaperAsynchronismExample(t *testing.T) {
	// The §3 worked example, adapted to ranks {1,2,3}→{0,1,2} (leader =
	// lowest rank): P1(=idx0) is slower to receive. P3(=idx2) and
	// P2(=idx1) initiate; P1 answers P3 first, then P2 which is the
	// leader. When P2 completes, P3 reinitiates; P1 must NOT answer P3's
	// new round before it has processed P2's end_snp — the request-id and
	// delay machinery guarantees P3 eventually gets a coherent answer.
	net, exs := mkSnapshot(t, 3, nil)
	doneP2 := false
	doneP3 := false
	sawP0 := -1.0
	exs[2].Acquire(net.ctx(2), func() {
		doneP3 = true
		sawP0 = exs[2].View().Metric(0, Workload)
		exs[2].Commit(net.ctx(2), []Assignment{{Proc: 0, Delta: Load{Workload: 7}}})
	})
	exs[1].Acquire(net.ctx(1), func() {
		doneP2 = true
		exs[1].Commit(net.ctx(1), []Assignment{{Proc: 0, Delta: Load{Workload: 50}}})
	})
	// P0 receives P3's start first, then P2's (the paper's "in that
	// order").
	if !net.deliverNext(func(m fakeMsg) bool { return m.kind == KindStartSnp && m.from == 2 && m.to == 0 }) {
		t.Fatal("missing start_snp from P3")
	}
	if !net.deliverNext(func(m fakeMsg) bool { return m.kind == KindStartSnp && m.from == 1 && m.to == 0 }) {
		t.Fatal("missing start_snp from P2")
	}
	net.drain(5000)
	if !doneP2 || !doneP3 {
		t.Fatalf("snapshots incomplete: P2=%v P3=%v", doneP2, doneP3)
	}
	// P3's snapshot ran after P2's, so at collection time P3 observed
	// P2's assignment of 50 to P0.
	if sawP0 != 50 {
		t.Fatalf("P3's snapshot saw %v for P0, want 50 (post-P2 state)", sawP0)
	}
	for r := 0; r < 3; r++ {
		if exs[r].Busy() {
			t.Fatalf("proc %d busy at end", r)
		}
	}
}

func TestSnapshotQuiescenceProperty(t *testing.T) {
	// Property: any set of simultaneous initiators completes — every
	// ready fires exactly once, nobody stays busy, and each snapshot
	// observes all previously committed assignments.
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%6 + 2
		k := int(kRaw)%n + 1
		net := newFakeNet(n)
		exs := make([]*Snapshot, n)
		for r := 0; r < n; r++ {
			x := NewSnapshot(n, r, Config{})
			net.exs[r] = x
			exs[r] = x
			x.Init(net.ctx(r), Load{})
		}
		completions := 0
		totalAssigned := 0.0
		for i := 0; i < k; i++ {
			r := (int(seed%1000) + i*7) % n
			if exs[r].initiating || exs[r].Busy() {
				continue
			}
			exs[r].Acquire(net.ctx(r), func() {
				completions++
				// Observed total load must equal everything committed
				// so far (sequentialization).
				var seen float64
				for p := 0; p < n; p++ {
					seen += exs[r].View().Metric(p, Workload)
				}
				if seen != totalAssigned {
					t.Fatalf("snapshot saw %v total, want %v", seen, totalAssigned)
				}
				slave := (r + 1) % n
				exs[r].Commit(net.ctx(r), []Assignment{{Proc: int32(slave), Delta: Load{Workload: 10}}})
				totalAssigned += 10
			})
		}
		net.drain(200000)
		for r := 0; r < n; r++ {
			if exs[r].Busy() {
				return false
			}
		}
		return completions > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMessageCountPerDecision(t *testing.T) {
	// An uncontended snapshot costs exactly 3(N-1) messages: start_snp,
	// snp replies, end_snp (Table 6's economy vs increments).
	n := 8
	net, exs := mkSnapshot(t, n, nil)
	exs[0].Acquire(net.ctx(0), func() { exs[0].Commit(net.ctx(0), nil) })
	net.drain(10000)
	total := net.sent[KindStartSnp] + net.sent[KindSnp] + net.sent[KindEndSnp]
	if total != 3*(n-1) {
		t.Fatalf("snapshot used %d messages, want %d", total, 3*(n-1))
	}
}

// TestSnapshotStateIndependentOfN pins that a rank's snapshot
// bookkeeping grows with the snapshots it hears of, not with n: apart
// from the view newBase allocates, NewSnapshot allocates as many bytes
// for 8192 ranks as for 64. The n-long per-peer arrays it replaced cost
// 6 bytes a rank.
func TestSnapshotStateIndependentOfN(t *testing.T) {
	const reps = 64
	keep := make([]any, reps)
	bytes := func(f func() any) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	extra := func(n int) uint64 {
		return bytes(func() any { return NewSnapshot(n, 0, Config{}) }) - bytes(func() any { return NewView(n) })
	}
	small, large := extra(64), extra(8192)
	// A few bytes of slack absorb a stray runtime allocation between the
	// two readings; the arrays would add 48 KiB.
	if large > small+16 {
		t.Fatalf("NewSnapshot allocates %d B beyond its view at n=8192, %d B at n=64", large, small)
	}
}

// TestSnapshotPeerListStaysShort pins that a rank's peer list holds no
// more records than snapshots it knows of at once: a record whose
// snapshot closed is reused by the next rank, however many distinct
// ranks initiate over time. Each wave opens k snapshots in ascending
// rank order, so all but the first are delayed and answered one by one
// as the leaders before them end.
func TestSnapshotPeerListStaysShort(t *testing.T) {
	const n, k, waves = 512, 3, 100
	net := newFakeNet(n)
	x := NewSnapshot(n, 0, Config{})
	net.exs[0] = x
	ctx := net.ctx(0)
	for w := 0; w < waves; w++ {
		first := 1 + w*k
		for r := first; r < first+k; r++ {
			x.HandleMessage(ctx, r, KindStartSnp, StartSnpPayload{Req: int32(w + 1)})
		}
		for r := first; r < first+k; r++ {
			x.HandleMessage(ctx, r, KindEndSnp, nil)
		}
		if len(x.peers) > k || x.Busy() {
			t.Fatalf("wave %d: %d records, busy %v; want at most %d, idle", w, len(x.peers), x.Busy(), k)
		}
	}
	if got := net.sent[KindSnp]; got != waves*k {
		t.Fatalf("sent %d snp replies, want one per start_snp (%d)", got, waves*k)
	}
}
