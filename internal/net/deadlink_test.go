package net

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestSeveredLinkDropsInsteadOfBlocking cuts the 0–1 link of a running
// 3-rank mesh and keeps rank 0 broadcasting: every update is one post
// to the dead link. Those posts must be dropped and counted — with a
// bounded queue behind a blocking post, rank 0's node goroutine stopped
// for ever at the 16 385th — and the ranks must go on answering Invoke
// and Decide over the links that are left.
func TestSeveredLinkDropsInsteadOfBlocking(t *testing.T) {
	cl, err := NewCluster(3, core.MechIncrements, core.Config{}, Options{CloseGrace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	cl.Node(0).peers[1].conn.Close()

	const changes = 20_000
	within(t, 10*time.Second, func() error {
		for i := 0; i < changes; i++ {
			cl.LocalChange(0, core.Load{core.Workload: 1})
		}
		return nil
	})
	// Rank 2 still hears rank 0 — per-link FIFO, so once its view holds
	// the last update it holds them all.
	deadline := time.Now().Add(5 * time.Second)
	for cl.View(2)[0][core.Workload] != changes {
		if time.Now().After(deadline) {
			t.Fatalf("rank 2 sees load %g on rank 0, want %d", cl.View(2)[0][core.Workload], changes)
		}
		time.Sleep(time.Millisecond)
	}
	// The writer notices the cut on its first write; every post after
	// that is a counted drop and nothing stays queued for the dead link.
	if tr := cl.Transport(0); tr.DroppedOut <= 0 || tr.DroppedOut > changes {
		t.Errorf("rank 0 counted %d dropped posts out of %d to the dead link", tr.DroppedOut, changes)
	}
	if now, peak := cl.Node(0).peers[1].out.depth(); now != 0 || peak >= changes/2 {
		t.Errorf("dead link's outbox holds %d messages (peak %d): queued, not dropped", now, peak)
	}
	// The scrape path shows the same count and an empty mailbox.
	reg := obs.NewRegistry()
	cl.Node(0).RegisterObs(reg)
	scraped := map[string]float64{}
	for _, smp := range reg.Gather() {
		scraped[smp.Name] = smp.Value
	}
	if got, want := scraped["loadex_frames_dropped_total"], float64(cl.Transport(0).DroppedOut); got != want {
		t.Errorf("loadex_frames_dropped_total %g, TransportStats.DroppedOut %g", got, want)
	}
	if scraped["loadex_inbox_depth"] != 0 || scraped["loadex_outbox_depth_max"] != 0 {
		t.Errorf("idle rank scrapes inbox depth %g, outbox depth %g", scraped["loadex_inbox_depth"], scraped["loadex_outbox_depth_max"])
	}
	if tr := cl.Transport(2); tr.DroppedOut != 0 {
		t.Errorf("rank 2 counted %d drops on healthy links", tr.DroppedOut)
	}
	// Rank 2 is linked to both others: a decision there still runs to
	// completion on ranks 0 and 1.
	within(t, 10*time.Second, func() error {
		if err := cl.Decide(2, 30, 2, 0); err != nil {
			return err
		}
		return cl.Drain(5 * time.Second)
	})
	if got := cl.Executed(0) + cl.Executed(1); got != 2 {
		t.Errorf("ranks 0 and 1 executed %d work items of rank 2's decision, want 2", got)
	}
}

// TestMeshMemoryFollowsTraffic pins what an idle-to-light 16-rank
// in-process mesh costs: 240 links and 16 mailboxes holding a quickstart
// run's few hundred messages. With fixed rings the same run took 685 MB
// (12 MB of inbound channels per rank, 2.75 MB per link direction).
func TestMeshMemoryFollowsTraffic(t *testing.T) {
	w, err := workload.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultParams()
	p.Procs, p.Spin = 16, 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Driver{Drive: workload.DriveOptions{Settle: -1}}.Run(w, core.MechIncrements, core.Config{}, p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(rep.Executed) != 16 {
		t.Fatalf("report covers %d ranks, want 16", len(rep.Executed))
	}
	const limit = 32 << 20
	if grew := after.Sys - before.Sys; grew > limit {
		t.Errorf("16-rank mesh grew runtime.MemStats.Sys by %.1f MB, limit %d MB", float64(grew)/(1<<20), limit>>20)
	} else {
		t.Logf("16-rank mesh grew Sys by %.1f MB", float64(grew)/(1<<20))
	}
}
