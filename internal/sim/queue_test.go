package sim

import (
	"testing"
)

// refQueue is a naive reference implementation of the engine's queue
// contract: a linear sorted list with eager cancellation. The tiered queue
// must dispatch exactly the same (time, tag) sequence.
type refQueue struct {
	events []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	tag int
}

func (r *refQueue) schedule(at Time, seq uint64, tag int) {
	i := len(r.events)
	for i > 0 {
		prev := r.events[i-1]
		if prev.at < at || (prev.at == at && prev.seq < seq) {
			break
		}
		i--
	}
	r.events = append(r.events, refEvent{})
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = refEvent{at: at, seq: seq, tag: tag}
}

func (r *refQueue) cancel(seq uint64) {
	for i, ev := range r.events {
		if ev.seq == seq {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return
		}
	}
}

func (r *refQueue) pop() (refEvent, bool) {
	if len(r.events) == 0 {
		return refEvent{}, false
	}
	ev := r.events[0]
	r.events = r.events[1:]
	return ev, true
}

// TestTieredQueueVsReference drives the engine and a naive sorted-list
// reference through the same randomized schedule/cancel/pop mix — including
// same-timestamp ties, zero delays, wheel-horizon crossings and far-future
// timers — and requires identical dispatch sequences.
func TestTieredQueueVsReference(t *testing.T) {
	// Delay palette stressing every tier: same-time ties (0), sub-bucket
	// (<65.5ns), bucket-crossing, mid-wheel, horizon-crossing (>16.8µs) and
	// far-future timers.
	delays := []Duration{
		0, 0, Nanosecond, 40 * Nanosecond, 70 * Nanosecond,
		300 * Nanosecond, 3 * Microsecond, 17 * Microsecond,
		120 * Microsecond, 5 * Millisecond, 200 * Millisecond,
	}
	rng := NewRand(DeriveSeed(1, "tiered-queue-vs-reference"))
	for iter := 0; iter < 30; iter++ {
		e := NewEngine()
		ref := &refQueue{}
		var got, want []refEvent
		nextTag := 0
		ids := map[int]EventID{} // tag -> id, for cancels
		seqOf := map[int]uint64{}
		var seq uint64

		schedule := func(at Time) {
			tag := nextTag
			nextTag++
			seq++
			ids[tag] = e.At(at, func() {
				got = append(got, refEvent{at: e.Now(), seq: seqOf[tag], tag: tag})
			})
			seqOf[tag] = seq
			ref.schedule(at, seq, tag)
		}

		// Seed a batch, then interleave pops with schedules and cancels the
		// way a simulation would (new events relative to current time).
		for i := 0; i < 50; i++ {
			schedule(Time(delays[rng.Intn(len(delays))]))
		}
		for ops := 0; ops < 3000; ops++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // pop one event
				wantEv, ok := ref.pop()
				if !ok {
					if e.Step() {
						t.Fatalf("iter %d: engine dispatched with empty reference", iter)
					}
					continue
				}
				if !e.Step() {
					t.Fatalf("iter %d: engine empty, reference has %d events", iter, len(ref.events)+1)
				}
				want = append(want, wantEv)
			case 6, 7, 8: // schedule relative to now
				schedule(e.Now().Add(delays[rng.Intn(len(delays))]))
			default: // cancel a random known tag (live, fired, or cancelled)
				if nextTag == 0 {
					continue
				}
				tag := rng.Intn(nextTag)
				e.Cancel(ids[tag])
				ref.cancel(seqOf[tag])
			}
		}
		// Drain both completely.
		for {
			wantEv, ok := ref.pop()
			if !ok {
				break
			}
			want = append(want, wantEv)
			if !e.Step() {
				t.Fatalf("iter %d: engine drained before reference", iter)
			}
		}
		if e.Step() {
			t.Fatalf("iter %d: engine had events after reference drained", iter)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: dispatched %d events, reference %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: dispatch %d = %+v, reference %+v", iter, i, got[i], want[i])
			}
		}
	}
}

// TestCancelAfterFireDoesNotGrow is the regression test for the old engine's
// cancelled-map leak: cancelling an already-fired (or fabricated) EventID
// inserted a map entry that nothing ever deleted, so long TCP runs with
// retransmission timers grew without bound. With generation-tagged slots a
// stale cancel must touch nothing.
func TestCancelAfterFireDoesNotGrow(t *testing.T) {
	e := NewEngine()
	var stale []EventID
	for round := 0; round < 1000; round++ {
		id := e.After(Duration(round)*Nanosecond, func() {})
		stale = append(stale, id)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
	slotsAfterDrain := len(e.q.slots)
	freeAfterDrain := len(e.q.free)
	// Hammer stale cancels: every fired ID, many times over, plus the zero ID.
	for i := 0; i < 10; i++ {
		for _, id := range stale {
			e.Cancel(id)
		}
		e.Cancel(EventID{})
	}
	if e.Pending() != 0 {
		t.Fatalf("stale cancels changed Pending to %d", e.Pending())
	}
	if len(e.q.slots) != slotsAfterDrain || len(e.q.free) != freeAfterDrain {
		t.Fatalf("stale cancels grew the slot table: slots %d->%d free %d->%d",
			slotsAfterDrain, len(e.q.slots), freeAfterDrain, len(e.q.free))
	}
	// The engine must still work, reusing the freed slots rather than
	// growing: steady-state churn with cancel-after-fire traffic keeps the
	// table at its high-water mark.
	for round := 0; round < 5000; round++ {
		id := e.After(10*Nanosecond, func() {})
		e.Step()
		e.Cancel(id) // always stale: the event just fired
	}
	if len(e.q.slots) != slotsAfterDrain {
		t.Fatalf("steady-state churn grew the slot table %d -> %d",
			slotsAfterDrain, len(e.q.slots))
	}
}

// TestCancelReleasesClosureSlot asserts a cancelled event's callback is
// dropped at cancel time (the slot record is cleared for the GC) and that the
// freed slot is reused by later events instead of growing the table.
func TestCancelReleasesClosureSlot(t *testing.T) {
	e := NewEngine()
	id := e.After(Millisecond, func() {})
	if got := len(e.q.slots); got != 1 {
		t.Fatalf("slot table = %d, want 1", got)
	}
	e.Cancel(id)
	if e.q.slots[0].ev.Tgt != nil {
		t.Fatal("cancel left the callback pinned in its slot")
	}
	// The dead entry still occupies the queue until it surfaces.
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (dead entry not yet popped)", e.Pending())
	}
	if got := e.NextEventTime(); got != Never {
		t.Fatalf("NextEventTime = %v, want Never", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after the dead head was discarded", e.Pending())
	}
	// A new event reuses slot 0 under a fresh generation; the stale ID
	// cannot touch it.
	id2 := e.After(Microsecond, func() {})
	if len(e.q.slots) != 1 {
		t.Fatalf("slot table grew to %d instead of reusing the freed slot", len(e.q.slots))
	}
	e.Cancel(id) // stale generation: must not cancel the new tenant
	if e.q.slots[0].ev.Tgt == nil {
		t.Fatal("stale EventID cancelled the slot's new tenant")
	}
	e.Cancel(id2)
	if e.q.slots[0].ev.Tgt != nil {
		t.Fatal("fresh EventID failed to cancel")
	}
}

// TestQueueEpochRefill exercises the wheel-epoch machinery directly: sparse
// far-apart events force repeated epoch restarts from the far heap.
func TestQueueEpochRefill(t *testing.T) {
	e := NewEngine()
	var fired []Time
	// All far beyond one wheel span (16.8µs) apart.
	for i := 20; i >= 1; i-- {
		at := Time(i) * Time(100*Microsecond)
		e.At(at, func() { fired = append(fired, e.Now()) })
	}
	e.Run()
	if len(fired) != 20 {
		t.Fatalf("fired %d events, want 20", len(fired))
	}
	for i := range fired {
		want := Time(i+1) * Time(100*Microsecond)
		if fired[i] != want {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], want)
		}
	}
}

// TestSchedulableHorizonPanics pins the documented limit: event times beyond
// maxSchedulable (Never minus one wheel span) are rejected loudly rather
// than corrupting wheel-epoch arithmetic.
func TestSchedulableHorizonPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling beyond the horizon did not panic")
		}
	}()
	e.At(Never, func() {})
}
