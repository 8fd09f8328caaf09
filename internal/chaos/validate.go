package chaos

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
)

// Violation is one failed cross-rank invariant.
type Violation struct {
	// Check names the invariant ("conservation", "compute",
	// "quiescence", "selection", "view").
	Check string
	// Detail explains the specific failure.
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Report is the outcome of validating one recorded run.
type Report struct {
	// N is the cluster size from the meta events (0 if none recorded).
	N int
	// Scenario/Mech/Term/Plan describe the run, from the meta events.
	Scenario, Mech, Term, Plan string
	// Threshold is the run's update threshold, the largest the meta
	// events state.
	Threshold float64
	// Event tallies.
	Events, Sends, Recvs, Starts, Dones, Decides, States int
	// SpanBegins/SpanEnds tally span events; SpanKinds counts
	// completed spans per kind.
	SpanBegins, SpanEnds int
	SpanKinds            map[string]int
	// Finals is how many ranks closed their trace with a final event,
	// Views how many of those carried the rank's final view.
	Finals, Views int
	// Violations is every failed invariant, empty for a clean run.
	Violations []Violation
}

// OK reports whether the run passed every check.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Format writes the human-readable validation summary.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "run: n=%d scenario=%s mech=%s term=%s plan=%s\n",
		r.N, orDash(r.Scenario), orDash(r.Mech), orDash(r.Term), orDash(r.Plan))
	fmt.Fprintf(w, "events: %d (%d send, %d recv, %d state, %d start, %d done, %d decide, %d/%d final, %d with view)\n",
		r.Events, r.Sends, r.Recvs, r.States, r.Starts, r.Dones, r.Decides, r.Finals, r.N, r.Views)
	if r.SpanBegins > 0 || r.SpanEnds > 0 {
		fmt.Fprintf(w, "spans: %d begin, %d end", r.SpanBegins, r.SpanEnds)
		for _, k := range slices.Sorted(maps.Keys(r.SpanKinds)) {
			fmt.Fprintf(w, ", %d %s", r.SpanKinds[k], k)
		}
		fmt.Fprintln(w)
	}
	if r.OK() {
		fmt.Fprintf(w, "OK: all invariants hold\n")
		return
	}
	fmt.Fprintf(w, "FAIL: %d violation(s)\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  - %s\n", v)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func (r *Report) violate(check, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// maxViolationsPerCheck bounds the detail spam from a badly broken run;
// the overflow is summarized.
const maxViolationsPerCheck = 16

// Validate checks one recorded run's cross-rank invariants:
//
//   - conservation: per directed rank pair, the multiset of sent
//     message payloads equals the multiset of received ones. A surplus
//     send is a lost (or still in-flight at termination) message; a
//     surplus receive is a duplicated or forged one. Because every rank
//     records its final event only after local termination, a clean
//     conservation check also means the termination detector never
//     fired with messages in flight.
//   - compute: per rank, every started compute interval completed
//     (starts == dones), and a rank's final executed count matches its
//     recorded completions.
//   - quiescence: every rank of the cluster closed its trace with
//     exactly one final event — a missing final is a crashed rank or a
//     truncated trace.
//   - selection: every recorded decision selected exactly the
//     least-loaded ranks of the view it was taken on (master excluded,
//     lower rank on ties) — the policy of core.PlanDecision.
//   - view: under the mechanisms that maintain views, every remote
//     entry of a rank's final view equals its owner's own final entry,
//     up to the run's threshold (a drift below it is never published)
//     and relative 1e-9 (absolute below one workload unit, where a sum
//     of increments that returns to zero leaves rounding residue).
//     Increments is held to this at any threshold; naive only at zero,
//     since its master credits a reservation in its own view alone and
//     a slave whose load moved by less than the threshold never
//     corrects it. A rank that announced No_more_master is exempt: its
//     peers prune it from their updates. Finals without a view are
//     skipped.
//
// pair is one directed rank pair for conservation bookkeeping.
type pair struct{ from, to int }

func Validate(events []Event) *Report {
	r := &Report{Events: len(events)}

	sent := map[pair]map[string]int{}
	recv := map[pair]map[string]int{}
	starts := map[int]int{}
	dones := map[int]int{}
	finals := map[int]int{}
	executed := map[int]int64{}
	views := map[int][]float64{}
	announced := map[int]bool{}

	add := func(m map[pair]map[string]int, p pair, k string) {
		if m[p] == nil {
			m[p] = map[string]int{}
		}
		m[p][k]++
	}

	// Span bookkeeping: begins awaiting their end (per rank, per span
	// id) and the LIFO stack per (rank, track). Nesting is only
	// enforced within a track — spans of different subsystems
	// (decision vs snapshot-round busy intervals) legitimately
	// interleave on one rank, but within a track (decision.acquire
	// inside decision) strict containment is the contract.
	type spanBegin struct {
		span  string
		track string
		t     float64
	}
	type trackKey struct {
		rank  int
		track string
	}
	openSpans := map[int]map[int64]spanBegin{}
	spanStacks := map[trackKey][]int64{}
	spanViol := 0
	spanBad := func(format string, args ...any) {
		if spanViol++; spanViol <= maxViolationsPerCheck {
			r.violate("span", format, args...)
		}
	}

	selViol, consViol := 0, 0
	for _, e := range events {
		switch e.Ev {
		case EvMeta:
			if e.N > 0 {
				if r.N != 0 && r.N != e.N {
					r.violate("quiescence", "conflicting cluster sizes in meta events: %d vs %d", r.N, e.N)
				}
				r.N = e.N
			}
			r.setMeta("scenario", &r.Scenario, e.Scenario)
			r.setMeta("mechanism", &r.Mech, e.Mech)
			r.setMeta("term protocol", &r.Term, e.Term)
			r.setMeta("chaos plan", &r.Plan, e.Plan)
			r.Threshold = max(r.Threshold, e.Threshold)
		case EvSend:
			r.Sends++
			add(sent, pair{e.Rank, e.Peer}, e.key())
		case EvRecv:
			r.Recvs++
			add(recv, pair{e.Peer, e.Rank}, e.key())
		case EvStart:
			r.Starts++
			starts[e.Rank]++
		case EvDone:
			r.Dones++
			dones[e.Rank]++
		case EvDecide:
			r.Decides++
			if v := checkSelection(e); v != "" {
				if selViol++; selViol <= maxViolationsPerCheck {
					r.violate("selection", "%s", v)
				}
			}
		case EvState:
			r.States++
			if e.Kind == kindNoMoreMaster {
				announced[e.Rank] = true
			}
		case EvFinal:
			r.Finals++
			finals[e.Rank]++
			executed[e.Rank] = e.Executed
			if len(e.View) > 0 {
				r.Views++
				views[e.Rank] = e.View
			}
		case EvSpanBegin:
			r.SpanBegins++
			if e.Span == "" || e.Sid == 0 {
				spanBad("rank %d began a span without a kind or id", e.Rank)
				continue
			}
			if openSpans[e.Rank] == nil {
				openSpans[e.Rank] = map[int64]spanBegin{}
			}
			if _, dup := openSpans[e.Rank][e.Sid]; dup {
				spanBad("rank %d reused span id %d while it was still open", e.Rank, e.Sid)
				continue
			}
			track := SpanTrack(e.Span)
			openSpans[e.Rank][e.Sid] = spanBegin{span: e.Span, track: track, t: e.T}
			tk := trackKey{e.Rank, track}
			spanStacks[tk] = append(spanStacks[tk], e.Sid)
		case EvSpanEnd:
			r.SpanEnds++
			b, ok := openSpans[e.Rank][e.Sid]
			if !ok {
				spanBad("rank %d ended span %q (id %d) that never began", e.Rank, e.Span, e.Sid)
				continue
			}
			delete(openSpans[e.Rank], e.Sid)
			if e.Span != "" && e.Span != b.span {
				spanBad("rank %d span id %d began as %q but ended as %q", e.Rank, e.Sid, b.span, e.Span)
			}
			if e.T < b.t {
				spanBad("rank %d span %q (id %d) ended at t=%.9g before it began at t=%.9g", e.Rank, b.span, e.Sid, e.T, b.t)
			}
			tk := trackKey{e.Rank, b.track}
			st := spanStacks[tk]
			if len(st) > 0 && st[len(st)-1] == e.Sid {
				spanStacks[tk] = st[:len(st)-1]
			} else {
				spanBad("rank %d span %q (id %d) ended out of LIFO order within track %q", e.Rank, b.span, e.Sid, b.track)
				for i := len(st) - 1; i >= 0; i-- {
					if st[i] == e.Sid {
						spanStacks[tk] = append(st[:i], st[i+1:]...)
						break
					}
				}
			}
			if r.SpanKinds == nil {
				r.SpanKinds = map[string]int{}
			}
			r.SpanKinds[b.span]++
		default:
			r.violate("quiescence", "rank %d recorded unknown event kind %q", e.Rank, e.Ev)
		}
	}

	// Span balance: every begin must have closed by end of trace — an
	// open span at quiescence is a truncated trace or an emitter bug.
	for _, rk := range slices.Sorted(maps.Keys(openSpans)) {
		for _, sid := range slices.Sorted(maps.Keys(openSpans[rk])) {
			b := openSpans[rk][sid]
			spanBad("rank %d span %q (id %d, began t=%.9g) never ended", rk, b.span, sid, b.t)
		}
	}
	if spanViol > maxViolationsPerCheck {
		r.violate("span", "... and %d more span violations", spanViol-maxViolationsPerCheck)
	}

	// Conservation: diff the send/recv multisets per directed pair.
	pairs := keyUnion(sent, recv)
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to)) })
	for _, p := range pairs {
		keys := keyUnion(sent[p], recv[p])
		slices.Sort(keys)
		for _, k := range keys {
			d := sent[p][k] - recv[p][k]
			if d == 0 {
				continue
			}
			if consViol++; consViol > maxViolationsPerCheck {
				continue
			}
			if d > 0 {
				r.violate("conservation", "%d message(s) %d->%d lost or in flight at termination (payload %s)", d, p.from, p.to, k)
			} else {
				r.violate("conservation", "%d message(s) %d->%d received but never sent (duplicated?) (payload %s)", -d, p.from, p.to, k)
			}
		}
	}
	if selViol > maxViolationsPerCheck {
		r.violate("selection", "... and %d more selection violations", selViol-maxViolationsPerCheck)
	}
	if consViol > maxViolationsPerCheck {
		r.violate("conservation", "... and %d more conservation violations", consViol-maxViolationsPerCheck)
	}

	// Compute intervals and per-rank quiescence.
	ranks := map[int]bool{}
	for rk := range starts {
		ranks[rk] = true
	}
	for rk := range dones {
		ranks[rk] = true
	}
	for _, rk := range slices.Sorted(maps.Keys(ranks)) {
		if starts[rk] != dones[rk] {
			r.violate("compute", "rank %d started %d compute interval(s) but completed %d", rk, starts[rk], dones[rk])
		}
	}
	n := r.N
	for rk := 0; rk < n; rk++ {
		switch finals[rk] {
		case 0:
			r.violate("quiescence", "rank %d never reached quiescence (no final event: crashed rank or truncated trace)", rk)
		case 1:
			if ex := executed[rk]; ex != int64(dones[rk]) {
				r.violate("compute", "rank %d reports %d executed item(s) but recorded %d completion(s)", rk, ex, dones[rk])
			}
		default:
			r.violate("quiescence", "rank %d recorded %d final events", rk, finals[rk])
		}
	}
	if n == 0 && r.Events > 0 {
		r.violate("quiescence", "no meta event: cluster size unknown, per-rank quiescence unchecked")
	}
	for rk := range finals {
		if rk < 0 || (n > 0 && rk >= n) {
			r.violate("quiescence", "final event from out-of-range rank %d (n=%d)", rk, n)
		}
	}
	if r.Mech == "increments" || r.Mech == "naive" && r.Threshold == 0 {
		r.checkViews(views, announced)
	}
	return r
}

// kindNoMoreMaster is core.KindNoMoreMaster, the state kind whose
// record exempts its sender from the view check; a test pins the two
// together.
const kindNoMoreMaster = 3

// checkViews holds every final view of a maintaining mechanism to its
// owners' own final entries: with every update delivered, a remote
// entry is what its owner last published, within the threshold of its
// final load. A rank that announced No_more_master receives no updates
// and is not checked; views of the wrong length are named.
func (r *Report) checkViews(views map[int][]float64, announced map[int]bool) {
	bad := 0
	for _, rk := range slices.Sorted(maps.Keys(views)) {
		view := views[rk]
		if r.N > 0 && len(view) != r.N {
			r.violate("view", "rank %d's final view has %d entries, want %d", rk, len(view), r.N)
			continue
		}
		if announced[rk] {
			continue
		}
		for owner, got := range view {
			ov, ok := views[owner]
			if owner == rk || !ok || owner >= len(ov) {
				continue
			}
			want := ov[owner]
			if math.Abs(got-want) <= r.Threshold+1e-9*max(1, math.Abs(got), math.Abs(want)) {
				continue
			}
			if bad++; bad <= maxViolationsPerCheck {
				r.violate("view", "rank %d ends believing rank %d's load is %.9g, but rank %d ends at %.9g", rk, owner, got, owner, want)
			}
		}
	}
	if bad > maxViolationsPerCheck {
		r.violate("view", "... and %d more stale view entries", bad-maxViolationsPerCheck)
	}
}

// checkSelection recomputes the least-loaded selection for one recorded
// decision and returns a violation detail, or "" if coherent.
func checkSelection(e Event) string {
	if len(e.View) == 0 || len(e.Sel) == 0 {
		return fmt.Sprintf("rank %d recorded a decision without view or selection", e.Rank)
	}
	for _, s := range e.Sel {
		if s == e.Rank {
			return fmt.Sprintf("rank %d selected itself as a slave (sel %v)", e.Rank, e.Sel)
		}
		if s < 0 || s >= len(e.View) {
			return fmt.Sprintf("rank %d selected out-of-range rank %d (view has %d ranks)", e.Rank, s, len(e.View))
		}
	}
	want := LeastLoaded(e.View, e.Rank, len(e.Sel))
	got := append([]int(nil), e.Sel...)
	slices.Sort(got)
	if !equalSelection(e.View, got, want) {
		return fmt.Sprintf("rank %d selected %v but the least-loaded ranks of its view %v are %v", e.Rank, got, e.View, want)
	}
	return ""
}

// equalSelection accepts any selection whose per-slot loads match the
// canonical least-loaded one: equal-load ranks are interchangeable, so
// only load-profile deviations count as incoherent.
func equalSelection(view []float64, got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	const eps = 1e-9
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if math.Abs(view[got[i]]-view[want[i]]) > eps {
			return false
		}
	}
	return true
}

// setMeta records one run-level meta field. Two different non-empty
// values inside one validation unit mean the directory mixes traces of
// two different runs — a "meta" violation, not a silent first-wins:
// every downstream invariant (conservation, quiescence) would otherwise
// be checked against an incoherent event soup.
func (r *Report) setMeta(name string, dst *string, v string) {
	if v == "" {
		return
	}
	if *dst != "" && *dst != v {
		r.violate("meta", "conflicting %s in meta events: %q vs %q (traces from different runs mixed in one directory?)",
			name, *dst, v)
		return
	}
	*dst = v
}

// keyUnion returns every key of a and b once, unsorted.
func keyUnion[K comparable, V any](a, b map[K]V) []K {
	keys := slices.Collect(maps.Keys(a))
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// SpanTrack groups span kinds into nesting tracks: the prefix before
// the first dot ("decision.acquire" → "decision"). LIFO nesting is
// enforced per (rank, track); cross-track interleaving is legitimate.
// The reporter draws one timeline row per track, and `loadex list`
// prints each catalog span kind's track from here.
func SpanTrack(kind string) string {
	for i := 0; i < len(kind); i++ {
		if kind[i] == '.' {
			return kind[:i]
		}
	}
	return kind
}
