package main

// -cpuprofile/-memprofile support for `loadex run`: plain
// runtime/pprof around the command body, so a hot cell can be profiled
// exactly as it runs in a sweep, e.g.
//
//	loadex run -scenario solver-wl -procs 4096 -runtime sim -cpuprofile cpu.out
//	go tool pprof cpu.out

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags carries the profiling flags of one command invocation.
type profileFlags struct {
	cpu string
	mem string
}

func (p *profileFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the whole command to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile (taken at exit, after a GC) to this file")
}

// start begins CPU profiling when requested and returns the stop
// function that finishes both profiles. Call it once after flag
// parsing; the returned function is safe to defer and reports the
// first write error.
func (p *profileFlags) start() (func() error, error) {
	var cpuF *os.File
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() error {
		var first error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				first = err
			}
		}
		if p.mem != "" {
			f, err := os.Create(p.mem)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			// A forced GC first, so the profile shows live retention
			// rather than whatever garbage the last cell left behind.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
