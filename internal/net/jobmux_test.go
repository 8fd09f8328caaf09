package net

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// TestJobFrameRoundTrip pushes job-tagged frames through the codec:
// the job id and the base-type payload must survive unchanged.
func TestJobFrameRoundTrip(t *testing.T) {
	stateMsg, err := JobStateMessage(7, 2, core.KindUpdate, core.UpdatePayload{Load: core.Load{42, -1}})
	if err != nil {
		t.Fatalf("JobStateMessage: %v", err)
	}
	msgs := []Message{
		JobDataMessage(1, 3, workload.DataMsg{Kind: 2, Node: 9, Peer: 1, Count: 4, Work: 12.5, Size: 80, Bytes: 640}),
		JobCtrlMessage(300, 0, termdet.Ctrl{Kind: termdet.CtrlToken, Count: -3, Black: true}),
		stateMsg,
	}
	for _, codec := range []BinaryCodec{{}} {
		for _, m := range msgs {
			body, err := codec.Encode(nil, m)
			if err != nil {
				t.Fatalf("%T encode %s: %v", codec, m.Type, err)
			}
			got, err := codec.Decode(body)
			if err != nil {
				t.Fatalf("%T decode %s: %v", codec, m.Type, err)
			}
			if got.Job != m.Job {
				t.Errorf("%T %s: job id %d, want %d", codec, m.Type, got.Job, m.Job)
			}
			// Compare the fields the base type carries.
			if got.Type != m.Type || got.From != m.From ||
				!reflect.DeepEqual(got.Data, m.Data) || got.Ctrl != m.Ctrl ||
				got.Kind != m.Kind {
				t.Errorf("%T %s roundtrip drift:\n got %+v\nwant %+v", codec, m.Type, got, m)
			}
		}
	}
}

// TestJobFrameClass asserts the chaos fault injector buckets job-tagged
// frames like their base types.
func TestJobFrameClass(t *testing.T) {
	cases := []struct {
		m    Message
		want chaos.Class
	}{
		{JobDataMessage(1, 0, workload.DataMsg{Kind: 1}), chaos.ClassData},
		{JobCtrlMessage(2, 0, termdet.Ctrl{Kind: termdet.CtrlAck}), chaos.ClassCtrl},
	}
	st, err := JobStateMessage(3, 0, core.KindUpdate, core.UpdatePayload{})
	if err != nil {
		t.Fatalf("JobStateMessage: %v", err)
	}
	cases = append(cases, struct {
		m    Message
		want chaos.Class
	}{st, chaos.ClassState})
	for _, codec := range []BinaryCodec{{}} {
		for _, c := range cases {
			body, err := codec.Encode(nil, c.m)
			if err != nil {
				t.Fatalf("%T encode: %v", codec, err)
			}
			if got := frameClass(body); got != c.want {
				t.Errorf("%T frameClass(%s) = %v, want %v", codec, c.m.Type, got, c.want)
			}
		}
	}
}

// TestJobTagRejections checks that the codec refuses the two tagged
// frames that would break its canonical form: a job tag carrying job id
// 0 (job 0's frames are untagged), and a job id on a type other than
// state, data or ctrl.
func TestJobTagRejections(t *testing.T) {
	for _, b := range [][]byte{
		{byte(TypeState) | jobBit, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, byte(core.KindEndSnp)},
		{byte(TypeHello) | jobBit, 0, 0, 0, 1, 0, 0, 0, 7},
	} {
		if m, err := (BinaryCodec{}).Decode(b); err == nil {
			t.Errorf("%x decoded as %+v", b, m)
		}
	}
	if _, err := (BinaryCodec{}).Encode(nil, Message{Type: TypeHello, From: 1, Job: 7}); err == nil {
		t.Error("job id on a hello frame encoded")
	}
}

// TestJobMuxRouting wires a 2-rank mesh and checks that frames of two
// concurrent jobs land on their own ports only, and that frames for an
// unregistered job id are dropped without disturbing the mesh.
func TestJobMuxRouting(t *testing.T) {
	nodes, addrs := make([]*Node, 2), make([]string, 2)
	for r := 0; r < 2; r++ {
		nd, err := NewNode(r, 2, core.MechNaive, core.Config{}, Options{})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", r, err)
		}
		nodes[r] = nd
		if addrs[r], err = nd.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("Listen(%d): %v", r, err)
		}
	}
	defer func() {
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				nd.Close()
			}(nd)
		}
		wg.Wait()
	}()
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func(r int) { errc <- nodes[r].Start(addrs) }(r)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("Start: %v", err)
		}
	}

	portA0, err := nodes[0].RegisterJob(1)
	if err != nil {
		t.Fatalf("RegisterJob A0: %v", err)
	}
	portA1, err := nodes[1].RegisterJob(1)
	if err != nil {
		t.Fatalf("RegisterJob A1: %v", err)
	}
	portB1, err := nodes[1].RegisterJob(2)
	if err != nil {
		t.Fatalf("RegisterJob B1: %v", err)
	}
	if _, err := nodes[0].RegisterJob(1); err == nil {
		t.Errorf("duplicate RegisterJob succeeded")
	}
	if _, err := nodes[0].RegisterJob(0); err == nil {
		t.Errorf("RegisterJob(0) succeeded; ids start at 1")
	}

	// Job 1 data from rank 0 must reach job 1's port on rank 1 only.
	portA0.SendData(1, workload.DataMsg{Kind: 5, Work: 7})
	if m := takeWithin(t, portA1, 5*time.Second); m.Class != workload.ClassData || m.From != 0 || m.Data.Kind != 5 || m.Data.Work != 7 {
		t.Errorf("job 1 data drifted: %+v", m)
	}
	var m workload.Msg
	if portB1.Take(true, &m) {
		t.Errorf("job 2 port received job 1 traffic: %+v", m)
	}

	// Ctrl frames of job 2 reach job 2's port.
	jp, err := nodes[0].RegisterJob(2)
	if err != nil {
		t.Fatalf("RegisterJob B0: %v", err)
	}
	jp.SendCtrl(1, termdet.Ctrl{Kind: termdet.CtrlAck})
	if m := takeWithin(t, portB1, 5*time.Second); m.Class != workload.ClassCtrl || m.From != 0 || m.Ctrl.Kind != termdet.CtrlAck {
		t.Errorf("job 2 ctrl drifted: %+v", m)
	}

	// Self-delivery stays local and in order.
	portA0.SendData(0, workload.DataMsg{Kind: 9})
	if m := takeWithin(t, portA0, time.Second); m.Class != workload.ClassData || m.From != 0 || m.Data.Kind != 9 {
		t.Errorf("self-delivery drifted: %+v", m)
	}

	// A frame for an unregistered job is dropped; the mesh stays alive.
	nodes[1].UnregisterJob(2)
	jp.SendCtrl(1, termdet.Ctrl{Kind: termdet.CtrlAck})
	portA0.SendData(1, workload.DataMsg{Kind: 6})
	if m := takeWithin(t, portA1, 5*time.Second); m.Class != workload.ClassData || m.Data.Kind != 6 {
		t.Errorf("post-drop data drifted: %+v", m)
	}

	// Per-port counters tally the job's own sends only.
	if c := portA0.Counters(); c.DataMsgs != 3 {
		t.Errorf("port A0 data msgs %d, want 3", c.DataMsgs)
	}
	if c := portB1.Counters(); c.DataMsgs != 0 || c.CtrlMsgs != 0 {
		t.Errorf("port B1 tallied traffic it never sent: %+v", c)
	}
}

// takeWithin is a job driver's take-or-park, bounded: the port's next
// message of any class, or a test failure after d.
func takeWithin(t *testing.T, jp *JobPort, d time.Duration) workload.Msg {
	t.Helper()
	deadline := time.After(d)
	var m workload.Msg
	for {
		if jp.Take(true, &m) {
			return m
		}
		select {
		case <-jp.Ready():
		case <-deadline:
			t.Fatalf("job %d rank %d: nothing arrived within %s", jp.ID(), jp.Rank(), d)
		}
	}
}

// TestPort0FramesAreUntagged: a node hosting one App rank speaks the
// one-shot protocol. Every frame its job-0 port emits is the untagged
// type with Job == 0, encoding to exactly the bytes — so the size — of
// the StateMessage, DataMessage or CtrlMessage it stands for.
func TestPort0FramesAreUntagged(t *testing.T) {
	nd, err := NewNode(0, 2, core.MechNaive, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A link with an outbox and no writer: what the port posts stays
	// queued for inspection.
	nd.peers[1] = &peer{rank: 1, out: newOutbox()}
	jp := nd.hostRank()

	states := []struct {
		kind    int
		payload any
	}{
		{core.KindUpdate, core.UpdatePayload{Load: core.Load{3, 1}}},
		{core.KindMasterToAll, core.MasterToAllPayload{Assignments: []core.Assignment{{Proc: 1, Delta: core.Load{2}}}}},
		{core.KindSnp, core.SnpPayload{Req: 4, Load: core.Load{5}}},
		{core.KindEndSnp, nil},
	}
	var want []Message
	for _, s := range states {
		jp.SendState(1, s.kind, s.payload, 0)
		m, err := StateMessage(0, s.kind, s.payload)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	data := workload.DataMsg{Kind: 2, Node: 7, Work: 1.5, Bytes: 64}
	jp.SendData(1, data)
	want = append(want, DataMessage(0, data))
	ctrl := termdet.Ctrl{Kind: termdet.CtrlToken, Count: 2}
	jp.SendCtrl(1, ctrl)
	want = append(want, CtrlMessage(0, ctrl))

	got := nd.peers[1].out.swap(nil)
	if len(got) != len(want) {
		t.Fatalf("port 0 posted %d frames, want %d", len(got), len(want))
	}
	for i, m := range got {
		switch m.Type {
		case TypeState, TypeData, TypeCtrl:
		default:
			t.Errorf("frame %d has type %s, want an untagged one", i, m.Type)
		}
		if m.Job != 0 {
			t.Errorf("frame %d (%s) carries job %d, want 0", i, m.Type, m.Job)
		}
		gotB, err := BinaryCodec{}.Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := BinaryCodec{}.Encode(nil, want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, wantB) {
			t.Errorf("frame %d (%s) encodes to %d bytes %x, want %d bytes %x", i, m.Type, len(gotB), gotB, len(wantB), wantB)
		}
	}
}
