package termdet

import "fmt"

// safra is Safra's termination-detection probe (the token algorithm of
// EWD 998, as used by distributed model checkers and MPI runtimes):
//
//   - every process i keeps a message-count balance count_i (sends
//     minus receives) and a color; receiving an application message
//     makes the process black (it may have been reactivated behind the
//     token's back);
//   - rank 0 launches a probe when it becomes passive: a white token
//     with count 0 travels the ring 0 → 1 → … → n-1 → 0. A process
//     holds the token while active and forwards it when passive, adding
//     its balance, blackening the token if it is black itself, and
//     whitening itself;
//   - when the token returns, rank 0 concludes termination iff it is
//     itself passive and white, the token is white, and the token's
//     count plus rank 0's balance is zero. Otherwise the probe failed
//     (activity crossed the cut) and a fresh one departs as soon as
//     rank 0 is passive again.
//
// Detection cost: n control hops per probe round and nothing per
// application message — the snapshot-flavoured end of the trade-off,
// where DS is the increments-flavoured one. Probe rounds are throttled
// by activity (a busy process simply holds the token), so a running
// computation sees at most one token in flight, not a probe storm.
type safra struct {
	n, rank int
	// kids are the rank's children in the star the termination
	// announcement travels.
	kids []int
	// count is the send/receive balance; self-sends cancel out but are
	// tracked symmetrically (send ++, receive --) for uniformity.
	count int32
	black bool
	// hasToken / tokenCount / tokenBlack hold the probe while the
	// process is active (it forwards at the next Passive).
	hasToken   bool
	tokenCount int32
	tokenBlack bool
	// probing is rank 0's "a token is in flight" latch.
	probing    bool
	active     bool
	terminated bool
}

func newSafra(n, rank int) *safra {
	return &safra{n: n, rank: rank, active: true, kids: starKids(n, rank)}
}

// Name implements Protocol.
func (s *safra) Name() string { return ProtocolSafra }

// Terminated implements Protocol.
func (s *safra) Terminated() bool { return s.terminated }

// OnSend implements Protocol.
func (s *safra) OnSend(ctx Context, to int) { s.count++ }

// OnReceive implements Protocol.
func (s *safra) OnReceive(ctx Context, from int) {
	s.count--
	s.black = true
	s.active = true
}

// OnCtrl implements Protocol.
func (s *safra) OnCtrl(ctx Context, from int, c Ctrl) {
	switch c.Kind {
	case CtrlToken:
		s.hasToken = true
		s.tokenCount = c.Count
		s.tokenBlack = c.Black
		if !s.active {
			s.handOff(ctx)
		}
	case CtrlTerm:
		s.terminated = true
		announce(ctx, s.kids)
	default:
		panic(fmt.Sprintf("termdet: safra: process %d received %s frame", s.rank, CtrlName(c.Kind)))
	}
}

// Passive implements Protocol.
func (s *safra) Passive(ctx Context) {
	s.active = false
	if s.terminated {
		return
	}
	if s.rank == 0 && !s.probing && !s.hasToken {
		s.launch(ctx)
		return
	}
	if s.hasToken {
		s.handOff(ctx)
	}
}

// launch departs a fresh probe from rank 0: whiten, send a white
// zero-count token to the next rank (or conclude immediately when
// alone).
func (s *safra) launch(ctx Context) {
	if s.n == 1 {
		// Alone: passive with a zero balance means nothing is in
		// flight (a pending self-send keeps count positive; its
		// receipt reactivates us and a later Passive re-evaluates).
		if s.count == 0 {
			s.conclude(ctx)
		}
		return
	}
	s.probing = true
	s.black = false
	ctx.SendCtrl(s.next(), Ctrl{Kind: CtrlToken})
}

// next is the rank whose turn follows this one's on the ring.
func (s *safra) next() int { return (s.rank + 1) % s.n }

// handOff is a passive process's token action: rank 0 evaluates the
// returned probe, everyone else passes it on to the next rank.
func (s *safra) handOff(ctx Context) {
	if s.rank == 0 {
		s.hasToken = false
		s.probing = false
		if !s.black && !s.tokenBlack && s.tokenCount+s.count == 0 {
			s.conclude(ctx)
			return
		}
		// Failed probe (activity crossed the cut): relaunch at once —
		// the caller guarantees we are passive, and the new round
		// starts from a whitened rank 0.
		s.launch(ctx)
		return
	}
	s.hasToken = false
	c := Ctrl{Kind: CtrlToken, Count: s.tokenCount + s.count, Black: s.tokenBlack || s.black}
	s.black = false
	ctx.SendCtrl(s.next(), c)
}

// conclude latches termination on rank 0 and announces it.
func (s *safra) conclude(ctx Context) {
	if s.terminated {
		return
	}
	s.terminated = true
	announce(ctx, s.kids)
}
