package sim

import "fmt"

// EventID identifies a scheduled event so it can be cancelled. It is a
// (slot, generation) pair into the engine's slot table — see queue.go — so
// cancellation is O(1) and a stale ID (fired, already cancelled, or simply
// fabricated) is rejected by the generation check without touching any
// structure. The zero EventID is invalid and Cancel ignores it.
type EventID struct {
	slot uint32 // 1-based slot index; 0 marks the zero (invalid) ID
	gen  uint32
}

// Engine is a sequential discrete-event simulation engine. All model state is
// owned by the engine's single logical thread of control: callbacks run one
// at a time, in (time, schedule-order) order, so a simulation is a pure
// function of its initial state and seeds.
//
// Events live in a tiered queue (near run / timing wheel / far heap, see
// queue.go) that dispatches in exactly the order the original binary-heap
// engine did, with O(1) scheduling and popping on the common near-future
// path and no per-event map traffic.
type Engine struct {
	now    Time
	seq    uint64
	q      eventQueue
	halted bool
	haltAt Time // pending HaltAt target; 0 = none armed

	// handlers is the event jump table (see event.go). Partitions of a
	// ParallelEngine share one table. Lazily allocated so a zero-value Engine
	// still serves At/After.
	handlers *handlerTable

	// Executed counts dispatched events, for performance reporting (§5).
	Executed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{handlers: new(handlerTable)}
}

// RegisterHandler installs the handler dispatched for typed events of kind k
// (last registration wins). Call before scheduling events of that kind —
// normally once at wiring time (core.New registers every model package's
// handlers on the cluster engine).
func (e *Engine) RegisterHandler(k EvKind, h Handler) {
	if e.handlers == nil {
		e.handlers = new(handlerTable)
	}
	e.handlers.register(k, h)
}

// dispatch runs one event: an evFunc record calls its func, any other kind
// goes through the jump table.
func (e *Engine) dispatch(at Time, ev *Event) {
	if ev.Kind == evFunc {
		ev.Tgt.(func())()
		return
	}
	if e.handlers != nil {
		if h := e.handlers[ev.Kind]; h != nil {
			h(at, *ev)
			return
		}
	}
	panic(fmt.Sprintf("sim: no handler registered for %v: call RegisterHandler before scheduling typed events (core.New registers the model packages' handlers; tests driving an Engine directly must call the package RegisterEventHandlers helpers themselves)", ev.Kind))
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at the absolute time at, as an evFunc record.
// Scheduling in the past (before Now) panics: it would silently reorder
// causality. Scheduling past maxSchedulable (Never minus one wheel span,
// ≈ 106 simulated days) panics too; use Never-bounded run deadlines, not
// Never-adjacent events.
func (e *Engine) At(at Time, fn func()) EventID {
	return e.schedule(at, &Event{Kind: evFunc, Tgt: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now.Add(d), fn)
}

// AtEvent schedules a typed event record at the absolute time at — the
// zero-allocation path for hot models (see event.go). The same past/horizon
// rules as At apply, and every event shares one sequence counter, so events
// dispatch in a single ascending (time, schedule-order).
func (e *Engine) AtEvent(at Time, ev Event) EventID {
	checkKind(ev.Kind)
	return e.schedule(at, &ev)
}

// schedule queues a copy of *ev (of any kind, evFunc included) at the
// absolute time at. Records travel by pointer through schedule and dispatch:
// Event has too many fields to stay in registers across the calls.
func (e *Engine) schedule(at Time, ev *Event) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %v at %v before now %v", ev.Kind, at, e.now))
	}
	if at > maxSchedulable {
		panic(fmt.Sprintf("sim: event time %d ps is beyond the schedulable horizon", int64(at)))
	}
	e.seq++
	return e.q.scheduleEvent(at, e.seq, ev)
}

// AfterEvent schedules a typed event record d after the current time.
func (e *Engine) AfterEvent(d Duration, ev Event) EventID {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.AtEvent(e.now.Add(d), ev)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// has already fired (or was already cancelled) is a no-op.
func (e *Engine) Cancel(id EventID) {
	e.q.cancel(id)
}

// Pending reports the number of events still queued (including cancelled
// events not yet popped).
func (e *Engine) Pending() int { return e.q.size() }

// ForEachPending invokes fn for every still-queued typed event record, in
// slot order (not dispatch order). At/After events are skipped — their
// captures are opaque. Callers use this for accounting over a halted engine
// (the packet-leak audit walks it to find frames carried by in-flight
// EvPacketHop/EvLoopback events), never for simulation semantics.
func (e *Engine) ForEachPending(fn func(Event)) { e.q.forEachPending(fn) }

// Halt stops the run loop after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// HaltAt stops the run loop once simulated time would pass t: every queued
// event with a timestamp <= t still runs (including chains spawned at t
// itself), then the clock freezes exactly at t and RunUntil returns. A t in
// the past is clamped to Now, completing the current instant. This is the
// sequential emulation of the partitioned engine's Halt, which always
// completes the quantum in progress — core.Cluster uses it so engine
// selection cannot leak into results through the halt instant. The target is
// one-shot (cleared when it triggers) and t must be positive: a zero t is
// ignored, matching the unarmed state.
func (e *Engine) HaltAt(t Time) {
	if t < e.now {
		t = e.now
	}
	e.haltAt = t
}

// Run dispatches events until the queue is empty or Halt is called.
func (e *Engine) Run() {
	e.RunUntil(Never)
}

// RunUntil dispatches events with timestamps <= deadline, advances Now to
// deadline if the queue drains early, and returns. Events exactly at the
// deadline are executed.
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted {
		at, ok := e.q.peekLive()
		if !ok {
			break
		}
		// An armed HaltAt target inside the deadline wins; a target beyond it
		// stays armed for a later run (the deadline cut matches the partitioned
		// engine clamping its final quantum to the deadline).
		if e.haltAt != 0 && e.haltAt <= deadline && at > e.haltAt {
			e.now = e.haltAt
			e.haltAt = 0
			return
		}
		if at > deadline {
			e.now = deadline
			return
		}
		_, ev := e.q.popHead()
		e.now = at
		e.Executed++
		e.dispatch(at, &ev)
	}
	// A drained queue with an armed HaltAt target still stops at the target
	// (the partitioned engine stops at the halting quantum's barrier whether
	// or not the queues drained there).
	if !e.halted && e.haltAt != 0 && e.haltAt <= deadline {
		if e.now < e.haltAt {
			e.now = e.haltAt
		}
		e.haltAt = 0
		return
	}
	// When the queue drains before the deadline, time still passes; a Halt,
	// however, freezes the clock at the last dispatched event.
	if !e.halted && deadline != Never && e.now < deadline {
		e.now = deadline
	}
}

// Step dispatches the single next live event, if any, and reports whether one
// was dispatched.
func (e *Engine) Step() bool {
	if _, ok := e.q.peekLive(); !ok {
		return false
	}
	at, ev := e.q.popHead()
	e.now = at
	e.Executed++
	e.dispatch(at, &ev)
	return true
}

// NextEventTime returns the timestamp of the earliest live event, or Never.
// Cancelled events that surface at the head are discarded on the way (so
// Pending may drop), exactly as the heap engine behaved.
func (e *Engine) NextEventTime() Time {
	if at, ok := e.q.peekLive(); ok {
		return at
	}
	return Never
}

// Progress describes how far a run has gone; used by the CLI tools for
// wall-clock/target-time slowdown reporting (§5 of the paper).
type Progress struct {
	Now      Time
	Executed uint64
}

// Progress returns a snapshot of engine progress.
func (e *Engine) Progress() Progress {
	return Progress{Now: e.now, Executed: e.Executed}
}
