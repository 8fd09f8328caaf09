package main

// loadex list: print every sweep axis of the scenario × mechanism ×
// runtime matrix — the registered workload scenarios (with their kind:
// program scenarios compile to per-rank step scripts, application
// scenarios host the paper's solver; both run through the application
// port), the load-exchange mechanisms and the runtimes —
// so the axes are discoverable without reading source.

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/termdet"
	"repro/internal/workload"
)

func runList(args []string) error {
	fs := flag.NewFlagSet("loadex list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("loadex list takes no arguments, got %q", fs.Args())
	}
	w := os.Stdout

	fmt.Fprintln(w, "scenarios (-scenario; \"all\" sweeps them):")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, wl := range workload.All() {
		kind := "app"
		if _, ok := wl.(workload.ProgramScenario); ok {
			kind = "program"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\n", wl.Name(), kind, wl.Describe())
	}
	tw.Flush()
	fmt.Fprintln(w, "  (every scenario runs on every runtime until the -term detector ends it; `loadex run -runtime net` forks one OS process per rank)")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "mechanisms (-mech; \"all\" sweeps them — the paper's three):")
	for _, m := range core.Mechanisms() {
		fmt.Fprintf(w, "  %s\n", m)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "termination protocols (-term; \"all\" sweeps them):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, name := range termdet.Names() {
		fmt.Fprintf(tw, "  %s\t%s\n", name, termdet.Describe(name))
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "chaos plans (-chaos; a comma-list sweeps them; fault injection on any runtime, validated offline by `loadex validate`):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, name := range chaos.Names() {
		fmt.Fprintf(tw, "  %s\t%s\n", name, chaos.Describe(name))
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "runtimes (-runtime; \"all\" sweeps them):")
	fmt.Fprintln(w, "  sim\tdeterministic discrete-event simulator")
	fmt.Fprintln(w, "  net\tlocalhost TCP (forked processes; -inproc: in-process)")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "metrics (-obs on node/serve/run exposes /metrics; per-rank series merge mesh-wide when the `rank` label drops):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, m := range obs.Catalog() {
		labels := m.Labels
		if labels == "" {
			labels = "-"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n", m.Name, m.Kind, labels, m.Runtimes, m.Help)
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "span kinds (-trace records them; `loadex report` draws the timeline, `loadex validate` checks nesting):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	for _, s := range obs.SpanKinds() {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", s.Name, chaos.SpanTrack(s.Name), s.Runtimes, s.Help)
	}
	tw.Flush()
	return nil
}
