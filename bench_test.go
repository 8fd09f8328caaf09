// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// (symbolic analysis, static mapping, simulated factorization under each
// mechanism) and reports the headline quantities through b.ReportMetric;
// the full rows — in the paper's layout, with the paper's values
// alongside — are printed by `go run ./cmd/loadex <table>`.
//
// The benchmarks use a reduced matrix scale so the whole suite stays
// laptop-friendly; cmd/loadex runs the calibrated default scale.
package main

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
)

// benchLab builds a Lab at bench scale, shared analyses per benchmark.
func benchLab() *experiments.Lab {
	cfg := experiments.DefaultConfig()
	cfg.ScalePerProcs = map[int]float64{
		32:  0.08,
		64:  0.16,
		128: 0.24,
	}
	return experiments.NewLab(cfg)
}

func BenchmarkTable1Matrices(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Matrices(32)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 11 {
			b.Fatalf("want 11 problems, got %d", len(rows))
		}
	}
}

func BenchmarkTable3Decisions(b *testing.B) {
	lab := benchLab()
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := lab.Table3()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.Measured
		}
	}
	b.ReportMetric(float64(total), "decisions")
}

func BenchmarkTable4MemoryPeaks(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Table4([]int{32, 64})
		if err != nil {
			b.Fatal(err)
		}
		// Report the aggregate mechanism comparison: mean peak ratio
		// naive/increments (the paper's Table 4 headline is that naive
		// is generally worse).
		var rn, rs float64
		for _, r := range rows {
			rn += r.Measured.Naive / r.Measured.Increments
			rs += r.Measured.Snapshot / r.Measured.Increments
		}
		b.ReportMetric(rn/float64(len(rows)), "naive/incr-peak")
		b.ReportMetric(rs/float64(len(rows)), "snap/incr-peak")
	}
}

func BenchmarkTable5Time(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Table567([]int{64}, false)
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for _, r := range rows {
			ratio += r.Time.Snapshot / r.Time.Increments
		}
		b.ReportMetric(ratio/float64(len(rows)), "snap/incr-time")
	}
}

func BenchmarkTable6Messages(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Table567([]int{64}, false)
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for _, r := range rows {
			ratio += float64(r.Msgs.Increments) / float64(r.Msgs.Snapshot)
		}
		b.ReportMetric(ratio/float64(len(rows)), "incr/snap-msgs")
	}
}

func BenchmarkTable7Threaded(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.Table567([]int{64}, true)
		if err != nil {
			b.Fatal(err)
		}
		var speedup float64
		for _, r := range rows {
			speedup += r.SnapshotOpsTime / maxF(r.ThreadedSnapshotOpsTime, 1e-9)
		}
		b.ReportMetric(speedup/float64(len(rows)), "snap-ops-speedup")
	}
}

func BenchmarkFigure1Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mech := range core.Mechanisms() {
			if err := experiments.Figure1(io.Discard, mech); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure2TreeRender(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		if err := lab.Figure2(io.Discard, "BMWCRA_1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoMoreMaster(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.AblationNoMoreMaster(64)
		if err != nil {
			b.Fatal(err)
		}
		var f float64
		for _, r := range rows {
			f += r.ReductionFactor
		}
		b.ReportMetric(f/float64(len(rows)), "msg-reduction")
	}
}

func BenchmarkAblationLeaderElection(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.AblationLeaderElection(64)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			spread := maxF(r.MinRank, maxF(r.MaxRank, r.ByLoadKey)) /
				minF(r.MinRank, minF(r.MaxRank, r.ByLoadKey))
			if spread > worst {
				worst = spread
			}
		}
		b.ReportMetric(worst, "election-spread")
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	lab := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := lab.AblationThreshold("AUDIKW_1", 64, []float64{0.25, 1, 8})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Msgs <= rows[len(rows)-1].Msgs {
			b.Fatalf("threshold sweep not monotone in messages: %+v", rows)
		}
	}
}

// BenchmarkSoloFactorization measures the raw simulator throughput on a
// single mechanism run (events per second of wall time).
func BenchmarkSoloFactorization(b *testing.B) {
	lab := benchLab()
	for _, mech := range core.Mechanisms() {
		mech := mech
		b.Run(string(mech), func(b *testing.B) {
			var steps uint64
			for i := 0; i < b.N; i++ {
				res, err := lab.RunOne("AUDIKW_1", 64, mech, sched.Workload(), nil)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "sim-events")
		})
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
