package net

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestByteConstantsMatchCodec pins every core.Bytes* constant to the
// exact frame-body length BinaryCodec emits for that kind. The
// constants are what the sim runtime charges for bandwidth
// accounting; if the codec layout changes without the constants (or
// vice versa), the accounting silently drifts — this table is the
// one place that drift can hide.
func TestByteConstantsMatchCodec(t *testing.T) {
	codec := BinaryCodec{}
	load := core.Load{1.5, -2.25}
	cases := []struct {
		kind    int
		payload any
		want    float64
	}{
		{core.KindUpdate, core.UpdatePayload{Load: load}, core.BytesUpdate},
		{core.KindNoMoreMaster, nil, core.BytesNoMoreMaster},
		{core.KindStartSnp, core.StartSnpPayload{Req: 7}, core.BytesStartSnp},
		{core.KindSnp, core.SnpPayload{Req: 7, Load: load}, core.BytesSnp},
		{core.KindEndSnp, nil, core.BytesEndSnp},
		{core.KindMasterToSlave, core.MasterToSlavePayload{Delta: load}, core.BytesMasterToSlave},
		{core.KindGossip, core.GossipPayload{Origin: 4, Seq: 9, TTL: 3, Load: load}, core.BytesGossip},
	}
	for _, tc := range cases {
		m, err := StateMessage(2, tc.kind, tc.payload)
		if err != nil {
			t.Fatalf("%s: StateMessage: %v", core.KindName(tc.kind), err)
		}
		body, err := codec.Encode(nil, m)
		if err != nil {
			t.Fatalf("%s: Encode: %v", core.KindName(tc.kind), err)
		}
		if float64(len(body)) != tc.want {
			t.Errorf("%s: encoded %d bytes, core constant says %g",
				core.KindName(tc.kind), len(body), tc.want)
		}
	}
}

// TestMasterToAllBytesMatchesCodec checks the variable-size kind for
// several assignment counts.
func TestMasterToAllBytesMatchesCodec(t *testing.T) {
	codec := BinaryCodec{}
	for k := 0; k <= 5; k++ {
		asgs := make([]core.Assignment, k)
		for i := range asgs {
			asgs[i] = core.Assignment{Proc: int32(i), Delta: core.Load{float64(i), 1}}
		}
		m, err := StateMessage(0, core.KindMasterToAll, core.MasterToAllPayload{Assignments: asgs})
		if err != nil {
			t.Fatal(err)
		}
		body, err := codec.Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := core.MasterToAllBytes(k); float64(len(body)) != want {
			t.Errorf("master_to_all with %d assignments: encoded %d bytes, MasterToAllBytes says %g",
				k, len(body), want)
		}
	}
}

// TestDiffuseBytesMatchesCodec checks the other variable-size kind: the
// diffusion view vector grows with the cluster size.
func TestDiffuseBytesMatchesCodec(t *testing.T) {
	codec := BinaryCodec{}
	for n := 1; n <= 6; n++ {
		loads := make([]core.Load, n)
		for i := range loads {
			loads[i] = core.Load{float64(i), -1}
		}
		m, err := StateMessage(0, core.KindDiffuse, core.DiffusePayload{Loads: loads})
		if err != nil {
			t.Fatal(err)
		}
		body, err := codec.Encode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := core.DiffuseBytes(n); float64(len(body)) != want {
			t.Errorf("diffuse with %d entries: encoded %d bytes, DiffuseBytes says %g",
				n, len(body), want)
		}
	}
}

// TestWorkItemBytesMatchesCodec pins the data-channel work item size the
// wireless runtimes charge.
func TestWorkItemBytesMatchesCodec(t *testing.T) {
	codec := BinaryCodec{}
	m := Message{Type: TypeWork, From: 3, Load: core.Load{4, 5}, Spin: int64(time.Millisecond)}
	body, err := codec.Encode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(body)) != core.BytesWorkItem {
		t.Errorf("work item: encoded %d bytes, core.BytesWorkItem says %g", len(body), core.BytesWorkItem)
	}
}

// TestNetCountersMatchCodecExactly runs real scenarios over in-process
// TCP and asserts, for every node and every message kind, that the
// bytes the writer goroutines counted off the actual encoded frames
// equal the bytes the core constants predicted at Send time — the
// acceptance check that the net runtime's byte totals match codec frame
// sizes exactly, per kind and in total, not just on average.
func TestNetCountersMatchCodecExactly(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		for _, scenario := range []string{"quickstart", "burst"} {
			t.Run(scenario+"/"+string(mech), func(t *testing.T) {
				p := workload.DefaultParams()
				p.Procs, p.Masters, p.Decisions, p.Slaves = 5, 2, 3, 2
				p.Spin = 200 * time.Microsecond
				cfg := core.Config{Threshold: core.Load{core.Workload: 5}, NoMoreMasterOpt: true}
				cl, progs := programCluster(t, scenario, p, mech, cfg)
				if err := drivePrograms(cl, progs, p.Spin); err != nil {
					cl.Stop()
					t.Fatal(err)
				}
				// Stop flushes every writer queue; only then are the
				// wire tallies final.
				cl.Stop()
				for r := 0; r < cl.N(); r++ {
					got := cl.Node(r).Counters()
					want := cl.Node(r).EstimatedCounters()
					if got.StateMsgs == 0 {
						t.Fatalf("rank %d sent no state messages — vacuous", r)
					}
					if got.StateMsgs != want.StateMsgs || got.StateBytes != want.StateBytes {
						t.Errorf("rank %d: wire state (%d msgs, %g B) != estimate (%d msgs, %g B)",
							r, got.StateMsgs, got.StateBytes, want.StateMsgs, want.StateBytes)
					}
					if got.DataMsgs != want.DataMsgs || got.DataBytes != want.DataBytes {
						t.Errorf("rank %d: wire data (%d msgs, %g B) != estimate (%d msgs, %g B)",
							r, got.DataMsgs, got.DataBytes, want.DataMsgs, want.DataBytes)
					}
					for kind := core.KindUpdate; kind <= core.KindMasterToSlave; kind++ {
						g, e := got.Kind(kind), want.Kind(kind)
						if g != e {
							t.Errorf("rank %d %s: wire %+v != estimate %+v",
								r, core.KindName(kind), g, e)
						}
					}
				}
			})
		}
	}
}
