package sim

import "fmt"

// Channel distinguishes the logical channels of the paper's model
// (§1): state-information messages travel on a dedicated channel and are
// treated with priority over all other messages (Algorithm 1, line (1)).
// The termination-detection control frames of the quiescence subsystem
// (internal/termdet) travel a third channel treated with the highest
// priority and exempt from the application's Blocked gating.
type Channel uint8

const (
	// StateChannel carries load/state-information messages: Update,
	// Master_To_All, No_more_master, start_snp, snp, end_snp.
	StateChannel Channel = iota
	// DataChannel carries application messages: tasks, contribution
	// blocks, factors.
	DataChannel
	// CtrlChannel carries termination-detection control frames
	// (engagement acks, probe tokens, the termination announcement).
	CtrlChannel
	// NumChannels is the channel count (for per-channel tallies).
	NumChannels
)

// String returns "state", "data" or "ctrl".
func (c Channel) String() string {
	switch c {
	case StateChannel:
		return "state"
	case DataChannel:
		return "data"
	case CtrlChannel:
		return "ctrl"
	}
	return fmt.Sprintf("channel(%d)", uint8(c))
}

// Message is a unit of communication between two processes. Kind is an
// application- or mechanism-defined tag; Payload carries the typed body.
type Message struct {
	From    int
	To      int
	Channel Channel
	Kind    int
	Payload any
	// Bytes is the on-wire size used for bandwidth accounting.
	Bytes float64
	// Arrived is the delivery instant, stamped by the network on the
	// message it hands to the recipient.
	Arrived Time
}
