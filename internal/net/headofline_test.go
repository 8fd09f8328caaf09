package net

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// within runs body and fails the test with a dump of every goroutine if
// it has not returned after d — a hang must name where it hangs.
func within(t *testing.T, d time.Duration, body func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- body() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("not done after %s\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// TestBurstSnapshotDoesNotDeadlock is the head-of-line repro: 4 ranks,
// every one a master, 3000 snapshot decisions each with instant work —
// 36 000 work items in flight towards ranks that are Busy in each
// other's snapshots. With a bounded data channel behind one blocking
// reader per socket the snp/end_snp frames got stuck behind work items
// the Busy rank would not take, and the run hung. The burst runs on
// a Cluster's resident ranks and, outside -short, again as the burst
// scenario hosted on the application port.
func TestBurstSnapshotDoesNotDeadlock(t *testing.T) {
	const procs, decisions, slaves = 4, 3000, 3
	want := int64(procs * decisions * slaves)
	// About 1 s plain per input, several under the race detector on a
	// 2-core machine; a hang is a hang at either deadline.
	deadline := 10 * time.Second
	if raceEnabled {
		deadline = time.Minute
	}
	t.Run("cluster", func(t *testing.T) {
		within(t, deadline, func() error {
			cl, err := NewCluster(procs, core.MechSnapshot, core.Config{}, Options{})
			if err != nil {
				return err
			}
			defer cl.Stop()
			errs := make(chan error, procs)
			for r := 0; r < procs; r++ {
				go func() {
					for i := 0; i < decisions; i++ {
						if _, err := cl.DecideObserved(r, 120, slaves, 0); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for r := 0; r < procs; r++ {
				if err := <-errs; err != nil {
					return err
				}
			}
			if err := cl.Drain(time.Minute); err != nil {
				return err
			}
			if got := cl.ExecutedItems(); got != want {
				return fmt.Errorf("executed %d work items, want %d", got, want)
			}
			return nil
		})
	})
	t.Run("app", func(t *testing.T) {
		if testing.Short() {
			t.Skip("second burst input; the resident ranks' covers -short")
		}
		within(t, deadline, func() error {
			w, err := workload.Get("burst")
			if err != nil {
				return err
			}
			p := workload.Params{Procs: procs, Decisions: decisions, Slaves: slaves}
			rep, err := workload.Run(&AppRunner{}, w, core.MechSnapshot, core.Config{}, p)
			if err != nil {
				return err
			}
			if got := rep.TotalExecuted(); got != want {
				return fmt.Errorf("executed %d work items, want %d", got, want)
			}
			return nil
		})
	})
}

// endSnpProbe wraps a resident rank's exchanger and records, at the
// moment the rank treats end_snp, how many work items had been executed
// and how many were queued.
type endSnpProbe struct {
	core.Exchanger
	nd               *Node
	seen             atomic.Bool
	executed, queued atomic.Int64
}

func (p *endSnpProbe) HandleMessage(ctx core.Context, from, kind int, payload any) {
	if kind == core.KindEndSnp {
		p.executed.Store(p.nd.executed.Load())
		queued, _ := p.nd.job0.in.depth()
		p.queued.Store(int64(queued))
		p.seen.Store(true)
	}
	p.Exchanger.HandleMessage(ctx, from, kind, payload)
}

// TestStateOvertakesQueuedData drives one socket by hand: a start_snp
// makes rank 0 Busy, then 10 000 work items and one end_snp follow on
// the same connection. The reader must queue all of it without waiting
// for the rank, and the rank must treat the end_snp before any work
// item — state before data is the mailbox's order, not the socket's.
func TestStateOvertakesQueuedData(t *testing.T) {
	const items = 10_000
	nd, err := NewNode(0, 2, Options{DialTimeout: 2 * time.Second, CloseGrace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	rk, err := newResident(nd, core.MechSnapshot, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	probe := &endSnpProbe{Exchanger: rk.exch, nd: nd}
	rk.exch = probe
	rk.start()
	defer rk.stop()
	addr, err := nd.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := BinaryCodec{}
	send := func(w *bufio.Writer, m Message) error {
		body, err := codec.Encode(nil, m)
		if err != nil {
			return err
		}
		return WriteFrame(w, body)
	}
	state := func(kind int, payload any) Message {
		m, err := StateMessage(1, kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	within(t, 10*time.Second, func() error {
		bw := bufio.NewWriter(conn)
		if err := send(bw, Message{Type: TypeHello, From: 1}); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := nd.Start([]string{addr, "unused"}); err != nil {
			return err
		}
		// Rank 0 answers start_snp with snp and stays Busy until end_snp.
		if err := send(bw, state(core.KindStartSnp, core.StartSnpPayload{Req: 1})); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		br := bufio.NewReader(conn)
		var buf []byte
		read := func() (Message, error) {
			body, err := ReadFrame(br, buf)
			if err != nil {
				return Message{}, err
			}
			buf = body
			return codec.Decode(body)
		}
		if m, err := read(); err != nil || m.Type != TypeState || int(m.Kind) != core.KindSnp {
			return fmt.Errorf("first frame back is %+v (err %v), want the snp reply", m, err)
		}
		for i := 0; i < items; i++ {
			if err := send(bw, Message{Type: TypeWork, From: 1, Load: core.Load{core.Workload: 1}}); err != nil {
				return err
			}
		}
		if err := send(bw, state(core.KindEndSnp, nil)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for acks := 0; acks < items; {
			m, err := read()
			if err != nil {
				return err
			}
			if m.Type == TypeWorkDone {
				acks++
			}
		}
		return nil
	})
	if !probe.seen.Load() {
		t.Fatalf("every work item acknowledged but end_snp never treated")
	}
	if e, q := probe.executed.Load(), probe.queued.Load(); e != 0 || q != items {
		t.Errorf("when end_snp was treated %d work items had run and %d were queued, want 0 and %d", e, q, items)
	}
	if got := nd.Executed(); got != items {
		t.Errorf("executed %d work items, want %d", got, items)
	}
	if tr := nd.Transport(); tr.InboxPeak < items {
		t.Errorf("InboxPeak %d, want at least the %d queued work items", tr.InboxPeak, items)
	}
}
