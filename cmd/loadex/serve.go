package main

// loadex serve / submit / job: the service mode. `serve` keeps one
// resident rank mesh up and admits a stream of jobs over a framed JSON
// API; `submit` and `job` are the matching clients.
//
//	loadex serve -procs 4 -mech increments -addr 127.0.0.1:7070
//	loadex submit -addr 127.0.0.1:7070 -decisions 4 -work 120 -wait
//	loadex submit -addr 127.0.0.1:7070 -kind app -scenario solver-wl -wait
//	loadex job metrics -addr 127.0.0.1:7070
//
// On SIGTERM/SIGINT, serve drains: admission stops, queued and running
// jobs finish, the mesh tears down, exit status 0.

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/termdet"
)

func runServe(args []string) error {
	fs := flag.NewFlagSet("loadex serve", flag.ExitOnError)
	procs := fs.Int("procs", 4, "resident mesh size (ranks)")
	mech := fs.String("mech", "increments", "load-exchange mechanism, one per mesh: "+strings.Join(mechNames(), ", "))
	term := fs.String("term", termdet.Default, "termination-detection protocol per job ("+strings.Join(termdet.Names(), ", ")+")")
	addr := fs.String("addr", "127.0.0.1:0", "client API listen address")
	conc := fs.Int("conc", 4, "max concurrently running jobs")
	queue := fs.Int("queue", 64, "admission queue capacity")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "bound on the SIGTERM drain")
	obsAddr := fs.String("obs", "", "serve Prometheus /metrics, /healthz and /debug/pprof on this address (e.g. :9090; empty = off)")
	traceDir := fs.String("trace", "", "record job lifecycle spans under this directory for `loadex report`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := core.New(core.Mech(*mech), 2, 0, core.Config{}); err != nil {
		return fmt.Errorf("unknown mechanism %q (available: %s)", *mech, strings.Join(mechNames(), ", "))
	}
	if *obsAddr != "" {
		if err := obs.ValidateAddr(*obsAddr); err != nil {
			return err
		}
	}
	var rec *chaos.Recorder
	if *traceDir != "" {
		var err error
		rec, err = chaos.OpenRecorder(filepath.Join(*traceDir, "serve.jsonl"))
		if err != nil {
			return err
		}
		rec.Record(chaos.Event{Ev: chaos.EvMeta, N: *procs, Scenario: "serve", Mech: *mech, Term: *term})
		defer rec.Close()
	}
	s, err := service.New(service.Config{
		Procs:         *procs,
		Mech:          core.Mech(*mech),
		Term:          *term,
		MaxConcurrent: *conc,
		QueueCap:      *queue,
		Rec:           rec,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return err
	}
	// The SERVE line is the machine-readable handshake (CI and scripts
	// read the bound address from it, like the forked nodes' ADDR line).
	fmt.Printf("SERVE %s procs=%d mech=%s term=%s\n", ln.Addr(), *procs, *mech, *term)
	if *obsAddr != "" {
		srv, err := obs.ServeHTTP(*obsAddr, func() []obs.Sample { return s.Registry().Gather() }, s.Health)
		if err != nil {
			s.Close()
			ln.Close()
			return err
		}
		fmt.Printf("OBS %s\n", srv.Addr())
		defer srv.Close()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("DRAIN signal=%s\n", sig)
		err := s.Drain(*drainTimeout)
		ln.Close()
		if err != nil {
			return err
		}
		m := s.Metrics()
		fmt.Printf("DRAINED jobs_completed=%d jobs_failed=%d jobs_canceled=%d\n",
			m.Completed, m.Failed, m.Canceled)
		return nil
	case err := <-serveErr:
		s.Close()
		return err
	}
}

func runSubmit(args []string) error {
	fs := flag.NewFlagSet("loadex submit", flag.ExitOnError)
	addr := fs.String("addr", "", "serving instance address (from the SERVE line)")
	kind := fs.String("kind", "synthetic", "job kind: synthetic or app")
	scenario := fs.String("scenario", "", "application scenario for -kind app (e.g. solver-wl)")
	decisions := fs.Int("decisions", 4, "synthetic: dynamic decisions")
	work := fs.Float64("work", 120, "synthetic: flops per decision")
	slaves := fs.Int("slaves", 2, "synthetic: slaves per decision")
	masters := fs.Int("masters", 0, "synthetic: master ranks (0 = default)")
	spin := fs.Duration("spin", 0, "synthetic: wall-clock spin per work share")
	wait := fs.Bool("wait", false, "block until the job finishes and print its final status")
	timeout := fs.Duration("timeout", 2*time.Minute, "bound on a -wait")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("usage: loadex submit -addr host:port [flags]")
	}
	c, err := service.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	spec := service.JobSpec{
		Kind:      *kind,
		Scenario:  *scenario,
		Decisions: *decisions,
		Work:      *work,
		Slaves:    *slaves,
		Masters:   *masters,
		Spin:      spin.Seconds(),
	}
	id, err := c.Submit(spec)
	if err != nil {
		return err
	}
	if !*wait {
		fmt.Printf("JOB %d\n", id)
		return nil
	}
	st, err := c.Result(id, *timeout)
	if err != nil {
		return err
	}
	printJob(st)
	if st.State != service.StateDone {
		return fmt.Errorf("job %d finished %s: %s", id, st.State, st.Err)
	}
	return nil
}

// runJobCmd is the `loadex job <status|result|cancel|metrics>` client.
func runJobCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: loadex job <status|result|cancel|metrics> -addr a [-id n]")
	}
	op := args[0]
	fs := flag.NewFlagSet("loadex job "+op, flag.ExitOnError)
	addr := fs.String("addr", "", "serving instance address")
	id := fs.Int("id", 0, "job id")
	timeout := fs.Duration("timeout", 2*time.Minute, "bound on a result wait")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("usage: loadex job %s -addr host:port [-id n]", op)
	}
	c, err := service.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	needID := func() error {
		if *id <= 0 {
			return fmt.Errorf("loadex job %s needs -id", op)
		}
		return nil
	}
	switch op {
	case "status":
		if err := needID(); err != nil {
			return err
		}
		st, err := c.Status(int32(*id))
		if err != nil {
			return err
		}
		printJob(st)
	case "result":
		if err := needID(); err != nil {
			return err
		}
		st, err := c.Result(int32(*id), *timeout)
		if err != nil {
			return err
		}
		printJob(st)
		if st.State != service.StateDone {
			return fmt.Errorf("job %d finished %s: %s", st.ID, st.State, st.Err)
		}
	case "cancel":
		if err := needID(); err != nil {
			return err
		}
		if err := c.Cancel(int32(*id)); err != nil {
			return err
		}
		fmt.Printf("CANCEL %d\n", *id)
	case "metrics":
		m, err := c.Metrics()
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	default:
		return fmt.Errorf("unknown job op %q (status, result, cancel, metrics)", op)
	}
	return nil
}

// printJob prints one job status as a stable single-record form.
func printJob(st *service.JobStatus) {
	fmt.Printf("JOB %d state=%s kind=%s makespan=%.3fs executed=%d decisions=%d data=%d ctrl=%d state_msgs=%d",
		st.ID, st.State, st.Kind, st.Makespan, st.Executed,
		st.Counters.Decisions, st.Counters.DataMsgs, st.Counters.CtrlMsgs, st.Counters.StateMsgs)
	if st.Err != "" {
		fmt.Printf(" err=%q", st.Err)
	}
	fmt.Println()
}
