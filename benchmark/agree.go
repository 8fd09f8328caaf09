package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// agreeDirs reads two sets of untraced results (the result.json files
// runs leave under -out) and prints, for every end-to-end metric on
// every workload, both medians, both spreads and whether set B agrees
// with set A: B's median no worse than A's by more than the metric's
// bound, and (setup_s aside) each spread within the bound. It returns
// whether every pair agreed.
func agreeDirs(w io.Writer, dirA, dirB string) bool {
	a, errA := readRuns(dirA)
	b, errB := readRuns(dirB)
	if errA != nil || errB != nil {
		fmt.Fprintf(w, "cannot read results: %v %v\n", errA, errB)
		return false
	}
	all := true
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn A\tmedian A\tspread A\tn B\tmedian B\tspread B\tB vs A\tbound\tagree\t")
	for _, wl := range workloadNames() {
		for _, d := range endToEnd {
			xa, xb := a[wl][d.name], b[wl][d.name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d\t-\t-\t%d\t-\t-\t-\t%.2f\tMISSING\t\n", wl, d.name, len(xa), len(xb), d.bound)
				all = false
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			ok := worse <= d.bound && (d.name == "setup_s" || (sa <= d.bound && sb <= d.bound))
			all = all && ok
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.3f\t%d\t%.6g\t%.3f\t%+.3f\t%.2f\t%v\t\n",
				wl, d.name, len(xa), ma, sa, len(xb), mb, sb, worse, d.bound, ok)
		}
	}
	tw.Flush()
	return all
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method).
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th quartile
		pos := float64(k*(n+1))/4 - 1
		j := min(max(int(pos), 0), n-2)
		return s[j] + (s[j+1]-s[j])*(pos-float64(j))
	}
	return (q(3) - q(1)) / median(s)
}

// readRuns gathers metric values by workload and metric name from the
// untraced, correct results in dir.
func readRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.trace0.result.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no *.trace0.result.json in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r savedRun
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: the run was not correct", f)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}
