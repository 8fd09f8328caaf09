package net

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"repro/internal/chaos"
)

// faultWriter mirrors the simulator's fault injection on the real TCP
// path: it sits between a writer goroutine's bufio.Writer and the peer
// connection, re-parses the batched byte stream back into length-
// prefixed frames, and applies the chaos plan to each frame — extra
// delay, probabilistic loss, adjacent-frame reordering within a batch,
// and link severing once an endpoint's crash time passes. The
// handshake's Hello frames never pass through it (Start writes them to
// the raw connection before the writer goroutine exists), so a plan can
// never fault the mesh setup itself.
//
// Reordering is bounded to one Write batch on purpose: holding a frame
// back across batches could park the last acknowledgment of a run
// indefinitely, turning a delivery fault into a harness hang.
type faultWriter struct {
	conn        net.Conn
	plan        *chaos.Plan
	rng         *chaos.RNG
	start       time.Time
	local, peer int
	quit        <-chan struct{}

	// acc accumulates partial frames across Write calls (a frame larger
	// than the bufio buffer arrives split).
	acc     []byte
	timer   *time.Timer // reused stall timer
	severed bool
}

// newFaultWriter wraps one directed link. The random stream is derived
// from the plan seed and the link coordinates, so forked processes
// fault deterministically without shared state.
func newFaultWriter(conn net.Conn, plan *chaos.Plan, local, peer int, start time.Time, quit <-chan struct{}) *faultWriter {
	return &faultWriter{
		conn: conn, plan: plan,
		rng:   plan.RNGFor(local, peer),
		start: start, local: local, peer: peer, quit: quit,
	}
}

// Write implements io.Writer over whole frames: complete frames in the
// batch are faulted and forwarded, a trailing partial frame waits in
// the accumulator for the rest of its bytes.
func (fw *faultWriter) Write(p []byte) (int, error) {
	if fw.severed {
		return 0, fw.severError()
	}
	fw.acc = append(fw.acc, p...)
	frames := fw.pending()
	if fw.plan.Reorder {
		for i := 0; i+1 < len(frames); i++ {
			if fw.rng.Float64() < 0.5 {
				frames[i], frames[i+1] = frames[i+1], frames[i]
			}
		}
	}
	for _, f := range frames {
		if err := fw.emit(f); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// pending extracts every complete frame from the accumulator, leaving
// the trailing partial one (if any) behind.
func (fw *faultWriter) pending() [][]byte {
	var frames [][]byte
	off := 0
	for {
		rest := fw.acc[off:]
		if len(rest) < FrameHeaderBytes {
			break
		}
		total := FrameHeaderBytes + int(binary.BigEndian.Uint32(rest))
		if len(rest) < total {
			break
		}
		frames = append(frames, append([]byte(nil), rest[:total]...))
		off += total
	}
	if off > 0 {
		// Re-copy the (typically tiny) remainder so the accumulator does
		// not pin every batch's backing array.
		fw.acc = append([]byte(nil), fw.acc[off:]...)
	}
	return frames
}

// emit applies the plan to one frame and forwards the survivors.
func (fw *faultWriter) emit(f []byte) error {
	if fw.plan.CrashedAt(time.Since(fw.start).Seconds(), fw.local, fw.peer) {
		fw.severed = true
		fw.conn.Close()
		return fw.severError()
	}
	if fw.plan.Drops(frameClass(f[FrameHeaderBytes:]), fw.rng) {
		return nil
	}
	stall := time.Duration(fw.plan.DelayFor(fw.rng) * float64(time.Second))
	if fw.plan.SlowsLink(fw.local, fw.peer) && fw.plan.SlowDelay > 0 {
		stall += time.Duration(fw.plan.SlowDelay * float64(time.Second))
	}
	if stall > 0 {
		if fw.timer == nil {
			fw.timer = time.NewTimer(stall)
		} else {
			fw.timer.Reset(stall)
		}
		select {
		case <-fw.timer.C:
		case <-fw.quit:
			// Shutdown: stop stalling but still write through, so the
			// run's final frames (termination announcements, trailing acks)
			// land before the connection closes.
			if !fw.timer.Stop() {
				<-fw.timer.C
			}
		}
	}
	_, err := fw.conn.Write(f)
	return err
}

func (fw *faultWriter) severError() error {
	return fmt.Errorf("net: chaos plan %q severed link %d->%d (rank %d crashed)",
		fw.plan.Name, fw.local, fw.peer, fw.plan.CrashRank)
}

// frameClass maps an encoded frame body onto the chaos traffic classes
// by its leading MsgType tag byte (job tag masked). Anything
// unrecognized — handshake and quiescence bookkeeping in particular —
// is ClassOther, which loss never touches.
func frameClass(body []byte) chaos.Class {
	if len(body) == 0 {
		return chaos.ClassOther
	}
	switch MsgType(body[0] &^ jobBit) {
	case TypeState:
		return chaos.ClassState
	case TypeWork, TypeData:
		return chaos.ClassData
	case TypeCtrl:
		return chaos.ClassCtrl
	}
	return chaos.ClassOther
}
