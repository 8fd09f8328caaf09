// Package reuse keeps scratch between the calls that use it without
// keeping it from the collector.
package reuse

import "weak"

// Free is a free list of *T, safe for concurrent use, that keeps as many
// values as its capacity. It holds them weakly: one idle at a collection
// is reclaimed, so idle scratch never counts in the live heap that paces
// the collector. Unlike a sync.Pool's per-P slots, every value kept is
// seen by every Get. Make one with make(Free[T], capacity).
type Free[T any] chan weak.Pointer[T]

// Get returns a kept value, or a new zero one when none is left.
func (f Free[T]) Get() *T {
	for {
		select {
		case w := <-f:
			if p := w.Value(); p != nil {
				return p
			}
		default:
			return new(T)
		}
	}
}

// Put keeps p for a later Get, or drops it when the list is full.
func (f Free[T]) Put(p *T) {
	select {
	case f <- weak.Make(p):
	default:
	}
}
