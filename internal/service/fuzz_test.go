package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
)

// holdSlot submits a job that keeps one run slot busy until it is
// canceled, and returns its id once it runs: a job submitted meanwhile
// on a server with one slot stays queued.
func holdSlot(t testing.TB, s *Server) int32 {
	t.Helper()
	id, err := s.Submit(JobSpec{Decisions: 1 << 20, Work: 10, Slaves: 1, Masters: 1, Spin: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Status(id); st.State == StateRunning {
			return id
		} else if time.Now().After(deadline) {
			t.Fatalf("job %d still %s after a minute", id, st.State)
		}
	}
}

// apiFrame is one length-prefixed request frame.
func apiFrame(body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// completeFrames splits in the way serveConn reads it: the bodies of
// the complete frames before the first length prefix above MaxFrame
// (which ends the connection) or the first truncated frame.
func completeFrames(in []byte) [][]byte {
	var frames [][]byte
	for len(in) >= 4 {
		n := binary.BigEndian.Uint32(in)
		if n > xnet.MaxFrame || uint64(len(in)-4) < uint64(n) {
			break
		}
		frames = append(frames, in[4:4+n])
		in = in[4+n:]
	}
	return frames
}

// teeConn keeps every byte written to it, whether or not the peer
// reads it.
type teeConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// FuzzServeConn feeds arbitrary bytes to one API connection over
// net.Pipe. One server serves every input; it is drained before the
// first, so no input can start a job (a fuzzed spec may run for
// minutes) and every request is answered at once. Job 1 held the run
// slot while keep+1 jobs were canceled in the queue, so jobs 2 and 3
// have expired. Each input must be served without a panic, each
// complete frame answered exactly once — a body that is not a request
// with "bad request frame", a status request with what Status says,
// and no answer written beyond them — and serveConn must return once
// the client hangs up.
func FuzzServeConn(f *testing.F) {
	s, err := New(Config{Procs: 2, Mech: core.MechNaive, MaxConcurrent: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	blocker := holdSlot(f, s)
	for range len(s.retired) + 1 {
		id, err := s.Submit(JobSpec{})
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Cancel(id); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Cancel(blocker); err != nil {
		f.Fatal(err)
	}
	if err := s.Drain(time.Minute); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Status(2); !errors.Is(err, ErrJobExpired) {
		f.Fatalf("status of job 2: %v, want expired", err)
	}

	status := apiFrame(`{"op":"status","id":1}`)
	f.Add(status)
	f.Add(apiFrame(`{"op":"status","id":2}`))
	f.Add(append(apiFrame(`{"op":"result","id":3}`), apiFrame(`{"op":"cancel","id":2}`)...))
	f.Add(apiFrame(`{"op":"frobnicate"}`))
	f.Add(apiFrame(`{"op":`))
	f.Add(append(apiFrame(`{"op":"metrics"}`), status[:len(status)-3]...))
	f.Add(append([]byte{0, 0x10, 0, 1}, status...))

	f.Fuzz(func(t *testing.T, in []byte) {
		client, conn := net.Pipe()
		defer client.Close()
		server := &teeConn{Conn: conn}
		// Before serving: the pipe refuses deadlines once either end closes.
		if err := client.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			s.serveConn(server)
			close(served)
		}()
		go client.Write(in) // fails once either end closes
		br := bufio.NewReader(client)
		frames := completeFrames(in)
		for i, body := range frames {
			out, err := xnet.ReadFrame(br, nil)
			if err != nil {
				t.Fatalf("frame %d of %d unanswered: %v", i+1, len(frames), err)
			}
			var resp Response
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("frame %d: answer %q is not a response: %v", i+1, out, err)
			}
			var req Request
			if err := json.Unmarshal(body, &req); err != nil {
				if !strings.HasPrefix(resp.Err, "bad request frame") {
					t.Fatalf("frame %d: malformed request %q answered %+v", i+1, body, resp)
				}
				continue
			}
			if req.Op == OpStatus {
				want := ""
				if _, err := s.Status(req.ID); err != nil {
					want = err.Error()
				}
				if resp.Err != want || resp.OK != (want == "") {
					t.Fatalf("frame %d: status of job %d answered %+v, Status says %q", i+1, req.ID, resp, want)
				}
			}
		}
		client.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatalf("serveConn still running 10 s after the client hung up on %d input bytes", len(in))
		}
		if n := len(completeFrames(server.out.Bytes())); n != len(frames) {
			t.Fatalf("%d answers to %d complete frames", n, len(frames))
		}
	})
}
