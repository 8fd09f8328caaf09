package main

// loadex validate: replay recorded chaos traces offline and check the
// cross-rank invariants no single process can check online —
// conservation (every work item sent was received exactly once),
// compute completion (every started task finished, and each rank's
// final tally matches), coherent selections (each recorded decision
// picked the least-loaded ranks of its own view) and quiescence (every
// rank reported exactly one final event, i.e. termination detection
// never fired with a rank missing). Runs recorded with a sparse -topo
// additionally check that every state message travelled an edge of the
// named neighbor graph and every selection stayed in the master's
// neighborhood.
//
//	loadex run -runtime net -scenario solver-wl -chaos delay -trace /tmp/traces
//	loadex validate -dir /tmp/traces
//
// Every directory under -dir that directly holds *.jsonl files is
// validated as one run (`loadex run` writes one subdirectory per run of
// each sweep cell). The exit status is non-zero if any run
// violated an invariant.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chaos"
)

func runValidate(args []string) error {
	fs := flag.NewFlagSet("loadex validate", flag.ExitOnError)
	dir := fs.String("dir", "", "root directory of recorded traces (each subdirectory holding *.jsonl files is one run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" && fs.NArg() == 1 {
		*dir = fs.Arg(0)
	}
	if *dir == "" || fs.NArg() > 1 {
		return fmt.Errorf("usage: loadex validate -dir <trace-root>")
	}
	return validateTraceRoot(os.Stdout, *dir)
}

// validateTraceRoot validates every trace set under root and prints one
// report per run; it errors if any run violated an invariant (or no
// traces were found — a validation that checked nothing must not pass).
func validateTraceRoot(w io.Writer, root string) error {
	dirs, err := chaos.TraceDirs(root)
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("no *.jsonl trace files under %s", root)
	}
	return validateTraceDirs(w, dirs)
}

// validateTraceDirs validates each directory as one run and prints one
// report per run; it errors if any run violated an invariant.
func validateTraceDirs(w io.Writer, dirs []string) error {
	bad := 0
	for _, d := range dirs {
		events, err := chaos.ReadDir(d)
		if err != nil {
			return err
		}
		rep := chaos.Validate(events)
		fmt.Fprintf(w, "== validate %s ==\n", d)
		rep.Format(w)
		if !rep.OK() {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d trace set(s) violated invariants", bad, len(dirs))
	}
	return nil
}
