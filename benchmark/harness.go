package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// env is one run's arguments.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// size scales every op count; 1 is the benchmark, the smoke test
	// runs 0.01. It never changes which metrics are reported.
	size float64
	out  string
}

// scaled returns n scaled by the run's size, at least lo.
func (e *env) scaled(n, lo int) int {
	return max(int(math.Round(float64(n)*e.size)), lo)
}

// file names an output file of this run under -out.
func (e *env) file(suffix string) string {
	return filepath.Join(e.out, fmt.Sprintf("%s.seed%d.trace%d.%s", e.workload, e.seed, b2i(e.trace), suffix))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// opDeadline bounds one epoch, table pass, simulation cell or round of
// jobs: a run that stalls counts the op failed and ends instead of
// hanging the pipeline. (A variable so the smoke test can shorten it.)
var opDeadline = 10 * time.Second

// A run sets up minSetups to maxSetups times, stopping early once it has
// spent setupBudget on it; setup_s is the median. Millisecond set-ups
// (dialing a mesh) need the many repeats, the 0.35 s one does not.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 1.5 // seconds
)

// bench is one workload. The harness calls setup several times (stop
// before each repeat), then round until -seconds have passed, then
// check, in a traced run layers, and stop.
type bench interface {
	setup() error
	// round does the workload's fixed work once. tr is nil except on
	// the traced rounds of a traced run.
	round(tr *tracer) (roundOut, error)
	// check verifies the outputs of every round so far.
	check() error
	// layers adds the per-layer metrics a traced run reports; it may
	// run probes of its own.
	layers(tr *tracer, m metrics) error
	// stop releases what setup built, if anything, and waits for it to
	// end.
	stop()
}

// roundOut is what one round measured.
type roundOut struct {
	// parts are the wall seconds of the round's timed sections; wall_s
	// sums the per-section medians over rounds, so one slow cell in one
	// round does not move it.
	parts []float64
	// work counts completed units (table cells, engine events,
	// decisions, jobs); stateMsgs the state-channel messages they cost.
	work, stateMsgs float64
	// lat holds the latency in seconds of each closed-loop operation.
	lat []float64
	// attempted and failed count operations; a stalled or wrong one
	// is failed.
	attempted, failed int
}

func (r roundOut) wall() float64 {
	var s float64
	for _, p := range r.parts {
		s += p
	}
	return s
}

type metrics map[string]float64

var errStalled = errors.New("stalled")

// guard runs fn and gives up after opDeadline: the stall is reported,
// every goroutine's stack goes to a dump under -out, and the caller
// stops the run. fn's goroutine is abandoned; the process exits soon
// after.
func (e *env) guard(what string, fn func() error) error {
	done := make(chan error, 1) // fn's one result, so an abandoned fn can still finish
	go func() { done <- fn() }()
	t := time.NewTimer(opDeadline)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
	}
	path := e.file("stall.txt")
	if err := os.MkdirAll(e.out, 0o755); err == nil {
		if f, err := os.Create(path); err == nil {
			fmt.Fprintf(f, "%s: no progress for %s\n\n", what, opDeadline)
			_ = pprof.Lookup("goroutine").WriteTo(f, 2) // best effort: the run already failed
			_ = f.Close()
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s stalled for %s; goroutines dumped to %s\n", what, opDeadline, path)
	return fmt.Errorf("%s: %w", what, errStalled)
}

// run executes one workload run and assembles its result.
func run(e *env, def workloadDef) (result, error) {
	goroutines0 := runtime.NumGoroutine()
	b := def.new(e)
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}

	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget); spent += setups[len(setups)-1] {
		b.stop()
		runtime.GC() // the last set-up's garbage is not this one's cost
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.stop()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		rounds                []roundOut
		tracedWall, plainWall []float64
		ms0, ms1              runtime.MemStats
		res                   = result{Correct: true, Metrics: map[string]value{}}
		stalled               bool
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	// At least two rounds, so same-seed determinism is always checked.
	for i := 0; i < 2 || time.Since(start).Seconds() < e.seconds; i++ {
		rtr := tr
		if i%2 == 0 {
			rtr = nil // untraced rounds of a traced run give the overhead's base
		}
		out, err := b.round(rtr)
		res.Attempted += out.attempted
		res.Failed += out.failed
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: round %d: %v\n", i, err)
			res.Correct = false
			stalled = errors.Is(err, errStalled)
			break
		}
		rounds = append(rounds, out)
		if rtr != nil {
			tracedWall = append(tracedWall, out.wall())
		} else if i > 0 { // the first round is cold; it would flatter the traced ones
			plainWall = append(plainWall, out.wall())
		}
	}
	runtime.ReadMemStats(&ms1)

	if res.Correct {
		if err := e.guard("output check", b.check); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: check: %v\n", err)
			res.Correct = false
		}
	}
	lm := metrics{}
	if e.trace && res.Correct {
		if err := b.layers(tr, lm); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: layers: %v\n", err)
			res.Correct = false
		}
	}
	t0 := time.Now()
	if !stalled {
		b.stop()
	} else if err := e.guard("stop after the stall", func() error { b.stop(); return nil }); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	}
	stopS := time.Since(t0).Seconds()
	leaked := leakedGoroutines(goroutines0)
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	res.Attempted = max(res.Attempted, 1)

	if !e.trace {
		wall := sectionMedians(rounds)
		var work, state float64
		for _, r := range rounds {
			work += r.work
			state += r.stateMsgs
		}
		// Latency percentiles are taken per round and their medians
		// reported, like wall_s, so a burst of interference in one round
		// does not set the tail.
		var p50s, p95s []float64
		for _, r := range rounds {
			p50s = append(p50s, quantile(r.lat, 0.5))
			p95s = append(p95s, quantile(r.lat, 0.95))
		}
		e2e := metrics{
			"setup_s":             median(setups),
			"wall_s":              wall,
			"work_per_s":          work / float64(max(len(rounds), 1)) / wall,
			"op_p50_us":           median(p50s) * 1e6,
			"op_p95_us":           median(p95s) * 1e6,
			"peak_rss_mb":         peakRSSMB(),
			"state_msgs_per_work": state / work,
		}
		for _, d := range endToEnd {
			v := e2e[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) { // no round completed
				v, res.Correct = 0, false
			}
			res.Metrics[d.name] = value{v, d.unit}
		}
		if len(rounds) > 0 {
			fmt.Printf("rounds %d, ops timed per round %d\n", len(rounds), len(rounds[0].lat))
		}
		return res, nil
	}

	lm["bench.rounds"] = float64(len(rounds))
	lm["bench.spans"] = float64(tr.len())
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		lm["bench.trace_overhead_share"] = median(tracedWall)/median(plainWall) - 1
	}
	lm["proc.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	lm["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	lm["proc.goroutines_leaked"] = float64(leaked)
	if def.stopMetric != "" {
		lm[def.stopMetric] = stopS
	}
	if leaked != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d goroutines leaked after stop\n", leaked)
		res.Correct = false
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = value{lm[d.name], d.unit}
	}
	for n := range lm {
		if _, ok := res.Metrics[n]; !ok {
			return res, fmt.Errorf("per-layer metric %q is not in the perLayer table", n)
		}
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return res, err
	}
	if err := tr.writeChrome(e.file("spans.json")); err != nil {
		return res, err
	}
	return res, nil
}

// sectionMedians sums, over a round's timed sections, the median wall
// time of each section across rounds.
func sectionMedians(rounds []roundOut) float64 {
	var total float64
	if len(rounds) == 0 {
		return total
	}
	for j := range rounds[0].parts {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, r.parts[j])
		}
		total += median(xs)
	}
	return total
}

// leakedGoroutines waits briefly for goroutines to wind down after stop
// and returns how many more run than before set-up.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the p-quantile of an unsorted sample, which it leaves as
// it was.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
