package net

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestHostDetectLatencyLatched pins the race fix on the TCP app host:
// detection latency is latched at the termination broadcast's CAS, so a
// straggling lastDoneNS store after termination cannot zero it, and
// report-time reads are stable.
func TestHostDetectLatencyLatched(t *testing.T) {
	b := &netAppHost{}
	done := time.Now().Add(-50 * time.Millisecond).UnixNano()
	b.lastDoneNS.Store(done)
	b.markTerm()
	lat := b.detectLatency()
	if lat < 0.045 {
		t.Fatalf("latched latency %.3fs, want >= ~0.05s", lat)
	}

	// The race: a compute completion lands after the broadcast. The
	// old report-time diff was zeroed by this; the latch must hold.
	b.lastDoneNS.Store(time.Now().Add(time.Hour).UnixNano())
	if got := b.detectLatency(); got != lat {
		t.Fatalf("straggler changed latency: %.6f -> %.6f", lat, got)
	}

	// Second broadcast: first CAS wins, no re-latch.
	b.markTerm()
	if got := b.detectLatency(); got != lat {
		t.Fatalf("second markTerm re-latched: %.6f -> %.6f", lat, got)
	}
}

func TestHostDetectLatencyUnobserved(t *testing.T) {
	b := &netAppHost{}
	b.markTerm()
	if got := b.detectLatency(); got != 0 {
		t.Fatalf("latency %.6f with no compute observed, want 0", got)
	}
}

func solverScenario(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.Get("solver-wl")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAppRunnerReportsDetectLatency: the latched latency reaches the
// in-process runner's report, positive and inside the run's makespan.
func TestAppRunnerReportsDetectLatency(t *testing.T) {
	app, opts, err := solverScenario(t).NewApp(core.MechNaive, core.Config{}, workload.Params{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&AppRunner{Timeout: 30 * time.Second}).RunApp(4, app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectLatency <= 0 || rep.DetectLatency >= rep.Time {
		t.Fatalf("detect latency %.6fs, want in (0, %.6fs)", rep.DetectLatency, rep.Time)
	}
}

// TestAppNodeReportsUnobservedLatencyAsZero hosts each rank on its own
// AppNode, as the forked deployment does, inside one process. Only rank
// 0's host sends the termination broadcast; every other rank sees one
// endpoint and must report zero.
func TestAppNodeReportsUnobservedLatencyAsZero(t *testing.T) {
	const n = 4
	as := solverScenario(t)
	nodes := make([]*Node, 0, n)
	defer func() {
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				nd.Close()
			}(nd)
		}
		wg.Wait()
	}()
	hosts := make([]*AppNode, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		app, opts, err := as.NewApp(core.MechNaive, core.Config{}, workload.Params{Procs: n})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := NewNode(r, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		if hosts[r], err = NewAppNode(nd, app, opts); err != nil {
			t.Fatal(err)
		}
		if addrs[r], err = nd.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	latency := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if errs[r] = nodes[r].Start(addrs); errs[r] != nil {
				return
			}
			rep, err := hosts[r].Run(30 * time.Second)
			if errs[r] = err; err == nil {
				latency[r] = rep.DetectLatency
			}
			// The health document carries the hosted rank's detector phase.
			if h := hosts[r].Health(); errs[r] == nil && (h.Detector != "ds" || !h.Terminated) {
				errs[r] = fmt.Errorf("health reports detector %q terminated=%v after the run, want ds terminated", h.Detector, h.Terminated)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if latency[0] <= 0 {
		t.Fatalf("rank 0 observed both endpoints but reports %.6fs", latency[0])
	}
	for r := 1; r < n; r++ {
		if latency[r] != 0 {
			t.Fatalf("rank %d never sent the term broadcast but reports %.6fs", r, latency[r])
		}
	}
}
