// Command benchmark is the repository's one fixed benchmark: five
// workloads, one process per run, inputs made from -seed, fixed-work
// rounds repeated for -seconds, outputs checked, every metric printed by
// name with its unit and a one-line JSON result last. See README.md.
//
//	bash benchmark/run.sh --workload net-pull --seed 3 --seconds 10 --trace 0
//	bash benchmark/run.sh -agree benchmark/out/a benchmark/out/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is the run's last stdout line, exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// savedRun is what a run leaves under -out for -agree to read.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Float64("seconds", 10, "how long to keep repeating the fixed-work round")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written under -out")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for results, spans and stall dumps")
		agree   = flag.Bool("agree", false, "compare two result directories: -agree <dirA> <dirB>")
	)
	flag.Parse()
	if *agree {
		if flag.NArg() != 2 {
			fatalf("usage: -agree <dirA> <dirB>")
		}
		if !agreeDirs(os.Stdout, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	}
	def, ok := workloads[*name]
	if !ok {
		fatalf("unknown -workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive, got %g", *seconds)
	}
	e := &env{workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0, size: 1, out: *out}
	res, err := run(e, def)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	printMetrics(os.Stdout, res)
	if err := save(e, res); err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printMetrics lists every metric by name with its unit, in name order.
func printMetrics(w *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func save(e *env, res result) error {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(savedRun{Workload: e.workload, Seed: e.seed, Trace: e.trace, Result: res}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.file("result.json"), b, 0o644)
}
