package main

// loadex report: render recorded traces into per-run timelines — a
// Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev)
// and a markdown latency-breakdown table, written next to the traces.
//
//	loadex run -runtime net -scenario solver-wl -trace /tmp/traces
//	loadex report /tmp/traces
//
// Like `loadex validate`, every directory under the root that directly
// holds *.jsonl files renders as one run.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/obs"
)

func runReport(args []string) error {
	fs := flag.NewFlagSet("loadex report", flag.ExitOnError)
	dir := fs.String("dir", "", "root directory of recorded traces (each subdirectory holding *.jsonl files is one run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" && fs.NArg() == 1 {
		*dir = fs.Arg(0)
	}
	if *dir == "" || fs.NArg() > 1 {
		return fmt.Errorf("usage: loadex report -dir <trace-root>")
	}
	return reportTraceRoot(os.Stdout, *dir)
}

// reportTraceRoot renders every trace set under root, writing
// timeline.json and report.md into each run directory.
func reportTraceRoot(w io.Writer, root string) error {
	dirs, err := chaos.TraceDirs(root)
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("no *.jsonl trace files under %s", root)
	}
	for _, d := range dirs {
		events, err := chaos.ReadDir(d)
		if err != nil {
			return err
		}
		tl := obs.BuildTimeline(events)
		jsonPath := filepath.Join(d, "timeline.json")
		mdPath := filepath.Join(d, "report.md")
		if err := writeTimelineJSON(jsonPath, tl); err != nil {
			return err
		}
		if err := writeTimelineMarkdown(mdPath, tl); err != nil {
			return err
		}
		fmt.Fprintf(w, "== report %s ==\n", d)
		fmt.Fprintf(w, "%d span(s) rendered", tl.Spans)
		if tl.Unmatched > 0 {
			fmt.Fprintf(w, " (%d unmatched — truncated trace?)", tl.Unmatched)
		}
		fmt.Fprintf(w, "\ntimeline: %s\nbreakdown: %s\n", jsonPath, mdPath)
		tl.WriteMarkdown(w)
		fmt.Fprintln(w)
	}
	return nil
}

func writeTimelineJSON(path string, tl *obs.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTimelineMarkdown(path string, tl *obs.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tl.WriteMarkdown(f)
	return f.Close()
}
