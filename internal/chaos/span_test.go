package chaos

import (
	"path/filepath"
	"strings"
	"testing"
)

func spanBase(extra ...Event) []Event {
	evs := []Event{
		{Ev: EvMeta, Rank: 0, N: 1, Scenario: "t", Mech: "snapshot"},
		{Ev: EvFinal, Rank: 0},
	}
	return append(evs, extra...)
}

func violations(r *Report, check string) []string {
	var out []string
	for _, v := range r.Violations {
		if v.Check == check {
			out = append(out, v.Detail)
		}
	}
	return out
}

func TestValidateSpansClean(t *testing.T) {
	rep := Validate(spanBase(
		Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 1.0},
		Event{Ev: EvSpanBegin, Rank: 0, Span: "decision.acquire", Sid: 2, T: 1.0},
		Event{Ev: EvSpanEnd, Rank: 0, Span: "decision.acquire", Sid: 2, T: 1.5},
		Event{Ev: EvSpanBegin, Rank: 0, Span: "decision.plan", Sid: 3, T: 1.5},
		Event{Ev: EvSpanEnd, Rank: 0, Span: "decision.plan", Sid: 3, T: 1.6},
		Event{Ev: EvSpanEnd, Rank: 0, Span: "decision", Sid: 1, T: 2.0},
	))
	if !rep.OK() {
		t.Fatalf("clean nested spans flagged: %v", rep.Violations)
	}
	if rep.SpanBegins != 3 || rep.SpanEnds != 3 {
		t.Fatalf("tallies %d/%d, want 3/3", rep.SpanBegins, rep.SpanEnds)
	}
	if rep.SpanKinds["decision.acquire"] != 1 {
		t.Fatalf("span kinds %v", rep.SpanKinds)
	}
}

func TestValidateSpansCrossTrackInterleaving(t *testing.T) {
	// A snapshot-round busy interval genuinely overlaps a decision
	// span without being nested inside it — that must stay legal.
	rep := Validate(spanBase(
		Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 1.0},
		Event{Ev: EvSpanBegin, Rank: 0, Span: "snapshot.round", Sid: 2, T: 1.2},
		Event{Ev: EvSpanEnd, Rank: 0, Span: "decision", Sid: 1, T: 1.5},
		Event{Ev: EvSpanEnd, Rank: 0, Span: "snapshot.round", Sid: 2, T: 1.8},
	))
	if !rep.OK() {
		t.Fatalf("cross-track interleaving flagged: %v", rep.Violations)
	}
}

func TestValidateSpanViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"unbalanced begin", spanBase(
			Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 1.0},
		), "never ended"},
		{"end without begin", spanBase(
			Event{Ev: EvSpanEnd, Rank: 0, Span: "decision", Sid: 7, T: 1.0},
		), "never began"},
		{"negative duration", spanBase(
			Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 2.0},
			Event{Ev: EvSpanEnd, Rank: 0, Span: "decision", Sid: 1, T: 1.0},
		), "before it began"},
		{"same-track LIFO breach", spanBase(
			Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 1.0},
			Event{Ev: EvSpanBegin, Rank: 0, Span: "decision.acquire", Sid: 2, T: 1.1},
			Event{Ev: EvSpanEnd, Rank: 0, Span: "decision", Sid: 1, T: 1.5},
			Event{Ev: EvSpanEnd, Rank: 0, Span: "decision.acquire", Sid: 2, T: 1.6},
		), "LIFO"},
		{"kind mismatch", spanBase(
			Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 1.0},
			Event{Ev: EvSpanEnd, Rank: 0, Span: "job.run", Sid: 1, T: 1.5},
		), "began as"},
		{"sid reuse", spanBase(
			Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 1.0},
			Event{Ev: EvSpanBegin, Rank: 0, Span: "decision", Sid: 1, T: 1.1},
			Event{Ev: EvSpanEnd, Rank: 0, Span: "decision", Sid: 1, T: 1.5},
		), "reused"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Validate(tc.events)
			vs := violations(rep, "span")
			if len(vs) == 0 {
				t.Fatalf("no span violation; all: %v", rep.Violations)
			}
			found := false
			for _, d := range vs {
				if strings.Contains(d, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no span violation mentioning %q: %v", tc.want, vs)
			}
		})
	}
}

func TestValidateSpansPerRankIndependent(t *testing.T) {
	// Two ranks using the same sid numbering must not cross-pair.
	rep := Validate([]Event{
		{Ev: EvMeta, Rank: 0, N: 2, Scenario: "t", Mech: "snapshot"},
		{Ev: EvSpanBegin, Rank: 0, Span: "termdet.idle", Sid: 1, T: 1.0},
		{Ev: EvSpanBegin, Rank: 1, Span: "termdet.idle", Sid: 1, T: 1.0},
		{Ev: EvSpanEnd, Rank: 0, Span: "termdet.idle", Sid: 1, T: 2.0},
		{Ev: EvSpanEnd, Rank: 1, Span: "termdet.idle", Sid: 1, T: 2.0},
		{Ev: EvFinal, Rank: 0},
		{Ev: EvFinal, Rank: 1},
	})
	if !rep.OK() {
		t.Fatalf("per-rank sid reuse flagged: %v", rep.Violations)
	}
}

func TestSpanRecorderRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r0.jsonl")
	rec, err := OpenRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	sid := rec.SpanBegin(0, "decision", 1.25)
	if sid == 0 {
		t.Fatal("live recorder returned sid 0")
	}
	rec.SpanEnd(0, "decision", sid, 2.5)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	if evs[0].Ev != EvSpanBegin || evs[0].T != 1.25 || evs[0].Sid != sid || evs[0].Span != "decision" {
		t.Fatalf("begin event %+v", evs[0])
	}
	if evs[1].Ev != EvSpanEnd || evs[1].T != 2.5 {
		t.Fatalf("end event %+v", evs[1])
	}
	// Nil recorder: whole span API is a no-op.
	var nilRec *Recorder
	if sid := nilRec.SpanBegin(0, "decision", 1); sid != 0 {
		t.Fatalf("nil recorder allocated sid %d", sid)
	}
	nilRec.SpanEnd(0, "decision", 0, 2)
}

func TestSpanTrack(t *testing.T) {
	for kind, want := range map[string]string{
		"decision":         "decision",
		"decision.acquire": "decision",
		"snapshot.round":   "snapshot",
		"compute":          "compute",
	} {
		if got := SpanTrack(kind); got != want {
			t.Errorf("SpanTrack(%q) = %q, want %q", kind, got, want)
		}
	}
}
