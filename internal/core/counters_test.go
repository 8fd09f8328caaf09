package core

import "testing"

// TestCountersCopyIsIndependent pins the value semantics the runtimes
// rely on when a counters sample crosses goroutines: a plain copy
// shares nothing with the original.
func TestCountersCopyIsIndependent(t *testing.T) {
	var orig Counters
	orig.AddState(KindUpdate, BytesUpdate)
	want := orig
	cp := orig
	cp.AddState(KindUpdate, BytesUpdate)
	cp.AddState(KindSnp, BytesSnp)
	if orig != want {
		t.Fatalf("adding to a copy changed the original: %+v, want %+v", orig, want)
	}
	if got := orig.Kind(KindUpdate); got.Msgs != 1 || got.Bytes != BytesUpdate {
		t.Fatalf("original update tally %+v, want 1 msg / %g bytes", got, float64(BytesUpdate))
	}
	if cp.Kind(KindUpdate).Msgs != 2 || cp.Kind(KindSnp).Msgs != 1 || cp.StateMsgs != 3 {
		t.Fatalf("copy did not count its own messages: %+v", cp)
	}
}

// TestCountersAddStateKindOutOfRange pins that a kind outside
// 1..KindMax counts in the totals only.
func TestCountersAddStateKindOutOfRange(t *testing.T) {
	var c Counters
	c.AddState(0, 8)
	c.AddState(KindMax+1, 8)
	c.AddState(-3, 8)
	if c.StateMsgs != 3 || c.StateBytes != 24 {
		t.Fatalf("totals %d msgs / %g bytes, want 3 / 24", c.StateMsgs, c.StateBytes)
	}
	if c.PerKind != ([KindMax + 1]KindTally{}) {
		t.Fatalf("out-of-range kinds reached the per-kind tally: %+v", c.PerKind)
	}
}

// TestCountersMergeAddsPerKind pins Merge element by element.
func TestCountersMergeAddsPerKind(t *testing.T) {
	var a, b Counters
	a.AddState(KindUpdate, 10)
	b.AddState(KindUpdate, 5)
	b.AddState(KindDiffuse, 7)
	b.AddData(100)
	b.AddCtrl(3)
	a.Merge(b)
	if a.Kind(KindUpdate) != (KindTally{Msgs: 2, Bytes: 15}) || a.Kind(KindDiffuse) != (KindTally{Msgs: 1, Bytes: 7}) {
		t.Fatalf("merged per-kind %+v", a.PerKind)
	}
	if a.StateMsgs != 3 || a.StateBytes != 22 || a.DataMsgs != 1 || a.CtrlMsgs != 1 {
		t.Fatalf("merged totals %+v", a)
	}
}

// TestCountersAllocs pins the accumulator's cost: counting a state
// message into a zero value, merging and copying allocate nothing.
func TestCountersAllocs(t *testing.T) {
	var total, sample Counters
	allocs := testing.AllocsPerRun(100, func() {
		var c Counters
		c.AddState(KindStartSnp, BytesStartSnp)
		total.Merge(c)
		sample = total
	})
	if allocs != 0 {
		t.Fatalf("AddState + Merge + copy: %g allocs/op, want 0", allocs)
	}
	if sample.Kind(KindStartSnp).Msgs == 0 {
		t.Fatal("nothing was counted")
	}
}
