// Package sim implements a deterministic discrete-event simulation (DES)
// kernel for asynchronous message-passing distributed systems.
//
// The kernel reproduces the execution model of the paper "A study of various
// load information exchange mechanisms for a distributed application using
// dynamic scheduling" (Guermouche & L'Excellent, RR-5478, 2005):
//
//   - N processes communicate only by asynchronous message passing;
//   - two logical channels exist between every pair of processes: a
//     prioritized channel for state-information messages and a channel for
//     everything else (tasks, data);
//   - in the default (single-threaded) model a process cannot treat a
//     message and compute simultaneously: messages queue while a task runs;
//   - in the threaded model (paper §4.5) a helper thread polls the
//     state-information channel every PollPeriod of virtual time, and can
//     pause the computing thread while a distributed snapshot is ongoing.
//
// All behaviour is deterministic: virtual time is a float64 number of
// seconds, ties between events are broken by insertion order, and all
// randomness flows from an explicitly seeded generator.
package sim

import "fmt"

// Time is a point in virtual time, in seconds since the start of the run.
type Time float64

// Duration is a span of virtual time, in seconds.
type Duration = Time

// Common durations, for readability at call sites.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
)

// String formats the time with microsecond resolution, e.g. "1.234567s".
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t))
}
