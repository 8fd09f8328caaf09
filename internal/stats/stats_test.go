package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("stddev = %v, want √2", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if p := Percentile(sorted, 0.5); p != 5 {
		t.Fatalf("P50 of {0,10} = %v, want 5", p)
	}
	if p := Percentile(sorted, 0); p != 0 {
		t.Fatal("P0 wrong")
	}
	if p := Percentile(sorted, 1); p != 10 {
		t.Fatal("P100 wrong")
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatal("empty percentile")
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Min > s.P50 || s.P50 > s.P90+1e-9 || s.P90 > s.P99+1e-9 || s.P99 > s.Max+1e-9 {
			return false
		}
		return s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMatchesSortRank(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		// P0 and P100 are the extremes.
		return Percentile(xs, 0) == xs[0] && Percentile(xs, 1) == xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImbalance(t *testing.T) {
	if v := Imbalance([]float64{1, 1, 1, 1}); v != 1 {
		t.Fatalf("balanced imbalance = %v, want 1", v)
	}
	if v := Imbalance([]float64{0, 0, 4}); math.Abs(v-3) > 1e-12 {
		t.Fatalf("imbalance = %v, want 3", v)
	}
	if v := Imbalance(nil); v != 0 {
		t.Fatal("empty imbalance")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if !strings.Contains(s.String(), "n=3") {
		t.Fatal("summary string missing n")
	}
}
