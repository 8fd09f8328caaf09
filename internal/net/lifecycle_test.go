package net

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// waitGoroutines waits for the goroutine count to come back down to
// (about) base: transport goroutines may legitimately take a moment to
// observe closed sockets, but they must all terminate.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestRepeatedStartCloseNoLeak cycles whole clusters up and down and
// checks every transport goroutine (readers, writers, node loops,
// accept helpers) terminates — the regression test for accept-loop and
// shutdown leaks.
func TestRepeatedStartCloseNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cl, err := NewCluster(3, core.MechIncrements, core.Config{}, Options{})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := cl.Decide(0, 30, 2, 0); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := cl.Drain(5 * time.Second); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		cl.Stop()
	}
	waitGoroutines(t, base)
}

// TestCloseRacesStart closes nodes while Start is still connecting the
// mesh. Before the lifecycle gate, this interleaving double-closed the
// node's done channel (Close saw started=false and closed it; Start
// then launched the run loop, which closed it again on exit) and could
// tear down connections Start was still installing. The test's only
// assertions are "no panic, no deadlock, no goroutine leak" — exactly
// what the race violated.
func TestCloseRacesStart(t *testing.T) {
	base := runtime.NumGoroutine()
	// Single-rank mesh: Start completes almost instantly, maximizing the
	// chance Close lands exactly around Start's final gate.
	for i := 0; i < 200; i++ {
		nd, err := NewNode(0, 1, core.MechNaive, core.Config{}, Options{DialTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := nd.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			nd.Start([]string{addr}) // may fail if Close wins; must not panic
		}()
		go func() {
			defer wg.Done()
			nd.Close()
		}()
		wg.Wait()
		nd.Close()
	}
	waitGoroutines(t, base)
}

// TestCloseWithHelloParked pins the double-close interleaving
// deterministically: a raw peer connects but withholds its hello, so
// Start parks in the accept wait; Close fires while Start is parked;
// the hello lands afterwards. Without the lifecycle gate, Close
// observed started=false and closed done itself, then Start completed
// the mesh and launched the run loop — whose exit closed done a second
// time (panic: close of closed channel).
func TestCloseWithHelloParked(t *testing.T) {
	base := runtime.NumGoroutine()
	nd, err := NewNode(0, 2, core.MechNaive, core.Config{}, Options{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := nd.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	startErr := make(chan error, 1)
	go func() { startErr <- nd.Start([]string{addr, "unused"}) }()
	// Deliver the hello only after Close has been requested: Close must
	// either finish the teardown after Start aborts, or make Start abort
	// — in neither case may the run loop outlive Close.
	go func() {
		time.Sleep(50 * time.Millisecond)
		codec := BinaryCodec{}
		body, err := codec.Encode(nil, Message{Type: TypeHello, From: 1})
		if err != nil {
			t.Error(err)
			return
		}
		WriteFrame(conn, body)
	}()
	time.Sleep(10 * time.Millisecond) // let Start park in the accept wait
	if err := nd.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-startErr; err == nil {
		t.Fatal("Start succeeded although the node was closed while it was parked")
	}
	nd.Close()
	waitGoroutines(t, base)
}

// TestCloseRacesInboundHello closes a node while a peer's hello is
// mid-flight through its accept loop, covering the error path after
// ln.Close(): the accept goroutine must neither leak nor surface its
// failure as anything but a clean Start error.
func TestCloseRacesInboundHello(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		// Rank 0 of a 2-node mesh accepts one hello from rank 1. The
		// close grace is short because a Close that lands after the
		// handshake waits it out in full: rank 1 is not closing yet.
		opts := Options{DialTimeout: 500 * time.Millisecond, CloseGrace: 100 * time.Millisecond}
		nd0, err := NewNode(0, 2, core.MechNaive, core.Config{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		addr0, err := nd0.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd1, err := NewNode(1, 2, core.MechNaive, core.Config{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		addr1, err := nd1.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := []string{addr0, addr1}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); nd0.Start(addrs) }()
		go func() { defer wg.Done(); nd1.Start(addrs) }()
		go func() {
			defer wg.Done()
			// Land the close somewhere inside the handshake window.
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			nd0.Close()
		}()
		wg.Wait()
		nd0.Close()
		nd1.Close()
	}
	waitGoroutines(t, base)
}
