package sim

import (
	"testing"
	"testing/quick"
)

// collectNet returns a network whose deliveries are copied into the
// returned slice: the *Message handed to deliver is only valid during the
// call.
func collectNet(n int, cfg NetworkConfig) (*Engine, *Network, *[]Message) {
	eng := NewEngine()
	var got []Message
	nw := NewNetwork(eng, n, cfg, func(m *Message) { got = append(got, *m) })
	return eng, nw, &got
}

func TestNetworkDeliversWithLatency(t *testing.T) {
	eng, nw, got := collectNet(2, NetworkConfig{Latency: 1 * Millisecond})
	nw.Send(&Message{From: 0, To: 1, Channel: DataChannel, Bytes: 100})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
	m := (*got)[0]
	if m.Arrived != 1*Millisecond {
		t.Fatalf("arrived at %v, want 1ms", m.Arrived)
	}
}

func TestNetworkTransferTime(t *testing.T) {
	eng, nw, got := collectNet(2, NetworkConfig{Latency: 0, Bandwidth: 1000})
	nw.Send(&Message{From: 0, To: 1, Bytes: 500}) // 0.5 s transfer
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if m := (*got)[0]; m.Arrived != 0.5 {
		t.Fatalf("arrived at %v, want 0.5s", m.Arrived)
	}
}

func TestNetworkLinkFIFOAndSerialization(t *testing.T) {
	eng, nw, got := collectNet(2, NetworkConfig{Latency: 1 * Millisecond, Bandwidth: 1000})
	// Two messages on the same link: the second waits for the first.
	nw.Send(&Message{From: 0, To: 1, Kind: 1, Bytes: 1000}) // 1s transfer
	nw.Send(&Message{From: 0, To: 1, Kind: 2, Bytes: 1000})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 {
		t.Fatalf("want 2 deliveries")
	}
	if (*got)[0].Kind != 1 || (*got)[1].Kind != 2 {
		t.Fatal("FIFO violated on a link")
	}
	if a := (*got)[1].Arrived; a != 2+1*Millisecond {
		t.Fatalf("second message arrived at %v, want 2.001s", a)
	}
}

func TestNetworkFIFOProperty(t *testing.T) {
	// Property: per ordered pair, messages arrive in send order whatever
	// the sizes; required by the snapshot algorithm (Chandy-Lamport).
	f := func(sizes []uint16) bool {
		eng, nw, got := collectNet(3, DefaultNetwork())
		for i, s := range sizes {
			nw.Send(&Message{From: 0, To: 1, Kind: i, Bytes: float64(s)})
		}
		if err := eng.Run(); err != nil {
			return false
		}
		for i, m := range *got {
			if m.Kind != i {
				return false
			}
		}
		return len(*got) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkIntraVsInterNode(t *testing.T) {
	cfg := NetworkConfig{
		Latency:      1 * Millisecond,
		IntraLatency: 10 * Microsecond,
		ProcsPerNode: 2,
	}
	eng, nw, got := collectNet(4, cfg)
	nw.Send(&Message{From: 0, To: 1}) // same node (0,1)
	nw.Send(&Message{From: 0, To: 2}) // different node
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var intra, inter Time
	for _, m := range *got {
		if m.To == 1 {
			intra = m.Arrived
		} else {
			inter = m.Arrived
		}
	}
	if intra != 10*Microsecond || inter != 1*Millisecond {
		t.Fatalf("intra=%v inter=%v", intra, inter)
	}
}

func TestNetworkIngressContention(t *testing.T) {
	cfg := NetworkConfig{Latency: 0, IngressBandwidth: 1000}
	eng, nw, got := collectNet(3, cfg)
	// Two senders hit the same receiver: ingress serializes them.
	nw.Send(&Message{From: 0, To: 2, Bytes: 1000})
	nw.Send(&Message{From: 1, To: 2, Bytes: 1000})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if a := (*got)[1].Arrived; a != 2 {
		t.Fatalf("second arrival %v, want 2s (ingress-serialized)", a)
	}
}

func TestNetworkBroadcastSkipsSender(t *testing.T) {
	eng, nw, got := collectNet(5, NetworkConfig{Latency: 1 * Microsecond})
	n := nw.Broadcast(2, Message{Channel: StateChannel, Kind: 7, Bytes: 8})
	if n != 4 {
		t.Fatalf("broadcast sent %d, want 4", n)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, m := range *got {
		if m.To == 2 {
			t.Fatal("broadcast delivered to sender")
		}
		if m.From != 2 || m.Kind != 7 {
			t.Fatalf("bad broadcast copy: %+v", m)
		}
	}
	if len(*got) != 4 {
		t.Fatalf("delivered %d, want 4", len(*got))
	}
}

func TestNetworkCounters(t *testing.T) {
	eng, nw, _ := collectNet(2, NetworkConfig{})
	nw.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 3, Bytes: 16})
	nw.Send(&Message{From: 0, To: 1, Channel: StateChannel, Kind: 3, Bytes: 16})
	nw.Send(&Message{From: 0, To: 1, Channel: DataChannel, Kind: 9, Bytes: 1024})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c := nw.Count(StateChannel); c.Messages != 2 || c.Bytes != 32 {
		t.Fatalf("state counter = %+v", c)
	}
	if c := nw.Count(DataChannel); c.Messages != 1 || c.Bytes != 1024 {
		t.Fatalf("data counter = %+v", c)
	}
	if nw.KindCount(StateChannel, 3) != 2 {
		t.Fatal("kind counter wrong")
	}
	if nw.TotalOnChannelExcept(StateChannel, 99) != 2 {
		t.Fatal("TotalOnChannelExcept wrong")
	}
	if nw.TotalOnChannelExcept(StateChannel, 3) != 0 {
		t.Fatal("exclusion not applied")
	}
}

func TestNetworkSelfSendPanicsOnBadRank(t *testing.T) {
	eng, nw, _ := collectNet(2, NetworkConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("bad rank did not panic")
		}
	}()
	nw.Send(&Message{From: 0, To: 5})
	_ = eng
}
