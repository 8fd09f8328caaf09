package sim

import (
	"fmt"
	"testing"
)

// refEngine is the order oracle for Engine: every scheduling is kept in
// one list and each step fires the pending one with the least (at, seq)
// by a linear scan. It has no fast lane, no heap and no recycling, so
// it states the engine's contract and nothing else.
type refEngine struct {
	now  Time
	recs []refRec
}

type refRec struct {
	at    Time
	fn    func()
	state int8 // 0 pending, 1 fired, 2 canceled
}

func (r *refEngine) At(t Time, fn func()) int {
	r.recs = append(r.recs, refRec{at: t, fn: fn})
	return len(r.recs) - 1
}

func (r *refEngine) Cancel(id int) {
	if r.recs[id].state == 0 {
		r.recs[id].state = 2
	}
}

func (r *refEngine) Valid(id int) bool { return r.recs[id].state == 0 }

func (r *refEngine) Pending() int {
	n := 0
	for _, rec := range r.recs {
		if rec.state == 0 {
			n++
		}
	}
	return n
}

func (r *refEngine) RunUntil(deadline Time) {
	for {
		best := -1
		for i, rec := range r.recs { // ids are seq order: the first minimum wins ties
			if rec.state == 0 && (best < 0 || rec.at < r.recs[best].at) {
				best = i
			}
		}
		if best < 0 || r.recs[best].at > deadline {
			return
		}
		r.now = r.recs[best].at
		r.recs[best].state = 1
		r.recs[best].fn()
	}
}

// orderScript drives one engine through a seeded script. Every decision
// an event's callback takes derives from the event's id and the seed,
// not from the engine, so two engines that fire the same events in the
// same order run the same script; log records everything observable.
type orderScript struct {
	seed   uint64
	at     func(t Time, fn func()) int
	cancel func(id int)
	valid  func(id int) bool
	now    func() Time
	n      int // events scheduled so far; ids are 0..n-1
	log    []string

	// resident, when set, reports the engine's heap length, and
	// compactions counts the waves that shrank it.
	resident    func() int
	compactions int
}

// draw returns a deterministic pseudo-random value for (id, k).
func (s *orderScript) draw(id, k int) uint64 {
	x := s.seed ^ uint64(id)*0x9e3779b97f4a7c15 ^ uint64(k)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// schedule adds one event at t; coarse times make ties common.
func (s *orderScript) schedule(t Time) int {
	id := s.n
	s.n++
	got := s.at(t, func() { s.fire(id) })
	if got != id {
		panic(fmt.Sprintf("script scheduled id %d, engine says %d", id, got))
	}
	return id
}

const scriptBudget = 6000 // events the callbacks may schedule in total

func (s *orderScript) fire(id int) {
	s.log = append(s.log, fmt.Sprintf("fire %d at %v", id, s.now()))
	if s.n >= scriptBudget {
		return
	}
	kids := int(s.draw(id, 0) % 4)
	for k := 0; k < kids; k++ {
		switch s.draw(id, 1+k) % 3 {
		case 0: // same instant: the fast lane
			s.schedule(s.now())
		case 1: // a coarse future tick: ties with heap residents
			s.schedule(s.now() + Time(1+s.draw(id, 10+k)%4)/4)
		default:
			s.schedule(s.now() + Time(s.draw(id, 20+k)%100)/64)
		}
	}
	if d := s.draw(id, 30); d%3 == 0 {
		// Cancel an earlier scheduling: pending in either lane, fired
		// (a stale handle) or already canceled.
		s.cancel(int(s.draw(id, 31) % uint64(s.n)))
	}
	v := int(s.draw(id, 32) % uint64(s.n))
	s.log = append(s.log, fmt.Sprintf("valid %d %v", v, s.valid(v)))
}

// wave schedules k future events and cancels all but keep of them,
// enough to cross the engine's compaction threshold.
func (s *orderScript) wave(k, keep int) {
	first := s.n
	for i := 0; i < k; i++ {
		s.schedule(s.now() + Time(1+s.draw(first, 40+i)%8)/4)
	}
	var before int
	if s.resident != nil {
		before = s.resident()
	}
	for i := keep; i < k; i++ {
		s.cancel(first + i)
	}
	if s.resident != nil && s.resident() < before {
		s.compactions++
	}
}

// run plays the whole script: seeded initial events, then alternating
// partial runs and cancel waves, then a drain.
func (s *orderScript) run(runUntil func(Time), pending func() int) {
	for i := 0; i < 400; i++ {
		s.schedule(Time(s.draw(-1, i)%40) / 4)
	}
	for round := 0; round < 6; round++ {
		s.wave(300, 10)
		s.log = append(s.log, fmt.Sprintf("pending %d", pending()))
		runUntil(s.now() + 2.5)
		s.log = append(s.log, fmt.Sprintf("pending %d", pending()))
	}
	runUntil(Time(maxFloat))
	s.log = append(s.log, fmt.Sprintf("pending %d", pending()))
	// On a drained engine: 65 events all canceled, so the 65th Cancel
	// compacts a heap with no survivor; then a wave keeping one event,
	// and a drain.
	s.wave(65, 0)
	s.log = append(s.log, fmt.Sprintf("pending %d", pending()))
	s.wave(200, 1)
	s.log = append(s.log, fmt.Sprintf("pending %d", pending()))
	runUntil(Time(maxFloat))
	s.log = append(s.log, fmt.Sprintf("pending %d", pending()))
}

// TestEngineOrderMatchesReference checks that Engine fires exactly what
// the linear-scan oracle fires, in (at, seq) order, across ties in at,
// same-instant events scheduled from callbacks, cancel waves past the
// compaction threshold (one of them leaving no event in the heap) and
// stale-handle Cancel/Valid calls.
func TestEngineOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		eng := NewEngine()
		var handles []EventHandle
		got := &orderScript{seed: seed,
			at: func(at Time, fn func()) int {
				handles = append(handles, eng.At(at, fn))
				return len(handles) - 1
			},
			cancel:   func(id int) { eng.Cancel(handles[id]) },
			valid:    func(id int) bool { return handles[id].Valid() },
			now:      eng.Now,
			resident: func() int { return len(eng.events) },
		}
		got.run(func(d Time) {
			if err := eng.RunUntil(d); err != nil {
				t.Fatal(err)
			}
		}, eng.Pending)

		ref := &refEngine{}
		want := &orderScript{seed: seed, at: ref.At, cancel: ref.Cancel, valid: ref.Valid,
			now: func() Time { return ref.now }}
		want.run(ref.RunUntil, ref.Pending)

		if len(got.log) != len(want.log) {
			t.Errorf("seed %d: engine logged %d entries, reference %d", seed, len(got.log), len(want.log))
		}
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: entry %d: engine %q, reference %q", seed, i, got.log[i], want.log[i])
			}
		}
		if got.n < 2000 || got.compactions == 0 {
			t.Fatalf("seed %d: script scheduled %d events and compacted %d times; want ≥ 2000 and ≥ 1",
				seed, got.n, got.compactions)
		}
	}
}
