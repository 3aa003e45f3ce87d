package sim

// This file implements per-quantum arena scratch. The parallel engine (and
// model code running under it) needs short-lived buffers whose lifetime is
// exactly one quantum: the barrier-exchange merge buffer, per-partition
// gather lists, observability snapshots. Allocating them per quantum puts
// garbage on the hot path; hoisting each one by hand into a long-lived field
// works (several fields in this package did exactly that) but scatters the
// reset discipline across every call site.
//
// An Arena centralizes the discipline without centralizing the memory: the
// arena itself holds nothing but a generation counter, so Reset is O(1) and
// touches no buffer. Each Scratch buffer is bound to an arena and remembers
// the generation it was last used in; the first Take after a Reset sees the
// stale generation and empties the buffer (dropping its references for the
// garbage collector) while keeping its capacity. Buffers therefore pay their
// reset cost only when actually used, quiescent scratch costs nothing, and a
// buffer can never leak across quanta by a forgotten reset.
//
// Concurrency contract: an Arena and the Scratch buffers bound to it are
// confined to one logical thread of control — a partition's worker between
// barriers, or the coordinator at the barrier. Reset happens only at the
// barrier, where the coordinator runs alone.

// Arena is a generation counter governing a set of Scratch buffers.
// The zero value is ready to use.
type Arena struct {
	gen uint64
}

// Reset invalidates every Scratch bound to the arena. O(1): buffers empty
// themselves lazily at their next Take.
func (a *Arena) Reset() { a.gen++ }

// Gen returns the current generation (diagnostics and tests).
func (a *Arena) Gen() uint64 { return a.gen }

// Scratch is a reusable buffer of T whose contents live for one arena
// generation. Take hands out the buffer (empty at first use each generation),
// the caller appends freely, and Keep stores the possibly-regrown slice back.
type Scratch[T any] struct {
	arena *Arena
	gen   uint64
	buf   []T
}

// NewScratch binds a scratch buffer to a.
func NewScratch[T any](a *Arena) *Scratch[T] {
	if a == nil {
		panic("sim: NewScratch with nil arena")
	}
	return &Scratch[T]{arena: a}
}

// Take returns the buffer for the current generation, ready for append. On
// the first Take after a Reset the previous generation's contents are cleared
// (references dropped, capacity kept).
func (s *Scratch[T]) Take() []T {
	if s.gen != s.arena.gen {
		s.gen = s.arena.gen
		clear(s.buf)
		s.buf = s.buf[:0]
	}
	return s.buf
}

// Keep stores buf back into the scratch so capacity grown by append survives
// into later Takes. Callers that are done with the contents before the next
// Reset may clear buf first to release references early; otherwise the next
// generation's first Take does it.
func (s *Scratch[T]) Keep(buf []T) { s.buf = buf }

// Cap returns the current backing capacity (diagnostics and tests).
func (s *Scratch[T]) Cap() int { return cap(s.buf) }
