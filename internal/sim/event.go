package sim

import "fmt"

// This file defines the scheduler's event record.
//
// A closure is the most general payload and the most expensive one on a hot
// path: every packet hop, NIC ring service and CPU timer tick would allocate
// a fresh func value plus its capture environment, just to carry two or
// three words to a known piece of code. DIABLO's FPGA schedulers dispatched
// fixed-format event records through a jump table; ScaleSimulator's software
// engine wins the same way. The engine does that here:
//
//   - Event is a small fixed-shape record: a kind tag, two scalar payload
//     words, and two reference words for the model objects involved.
//     Scheduling one allocates nothing — the record is copied into the
//     engine's generation-tagged slot table, and the queue's tier arrays
//     stay pointer-free 24-byte entries.
//   - Handlers are registered per kind in a per-engine jump table
//     (RegisterHandler), normally once at core.New time. Dispatch is one
//     indexed load and an indirect call.
//
// There is one scheduling lane. At/After (and Send, Cross.At) wrap their
// func() in an Event of the package-private kind evFunc, with Tgt holding
// the func; dispatch calls it directly. A func value is pointer-shaped, so
// storing it in Tgt does not box it: a non-capturing closure schedules
// without allocating. Closures remain the right tool for cold paths
// (connection setup, timers that fire thousands of times per second instead
// of millions, test scaffolding); hot paths use the Ev* kinds.
//
// Payload discipline: Obj and Arg are plain scalars (port indexes, deadline
// timestamps). Tgt and Ref hold the model objects the handler works on — a
// deliberate deviation from a pure-uintptr record, because storing object
// references as integers would hide them from Go's garbage collector. They
// cost nothing extra: interface assignment of a pointer does not allocate.

// EvKind tags a typed event record and indexes the engine's handler table.
// The zero kind is reserved (it marks a free slot).
type EvKind uint8

// The event-kind namespace is owned by package sim so kinds stay dense and
// the jump table stays a flat array. Each kind is claimed by exactly one
// model package, which registers its handler via RegisterEventHandlers.
const (
	evNone EvKind = iota // reserved: free or cancelled slot

	// EvPacketHop delivers a frame at the end of a link: Tgt is the *link.Link,
	// Ref the *packet.Packet.
	EvPacketHop
	// EvSwitchTxDone completes an egress transmission: Tgt is the
	// *vswitch.Switch, Obj the output-port index.
	EvSwitchTxDone
	// EvSwitchWake re-runs dispatch when a queued head matures: Tgt is the
	// *vswitch.Switch, Obj the output-port index, Arg the eligibility time.
	EvSwitchWake
	// EvNicTx retires the NIC's in-flight TX descriptor: Tgt is the *nic.NIC.
	EvNicTx
	// EvNicRxIntr fires a mitigated RX interrupt: Tgt is the *nic.NIC.
	EvNicRxIntr
	// EvTimerTick ends a user-mode CPU chunk: Tgt is the *kernel.Machine.
	EvTimerTick
	// EvKernelSpan completes the executing kernel-context work item: Tgt is
	// the *kernel.Machine.
	EvKernelSpan
	// EvAppTick is a generic application/benchmark tick for harness models
	// (the §5 engine-comparison probe): Tgt is harness-defined.
	EvAppTick
	// EvLoopback delivers a locally-addressed packet after the loopback
	// latency: Tgt is the *kernel.Machine, Ref the *packet.Packet. Typed (not
	// a closure) so the in-flight packet is enumerable for release accounting
	// and the loopback fast path allocates nothing.
	EvLoopback
	// EvThreadWake wakes a sleeping thread when its nanosleep expires: Tgt is
	// the *kernel.Thread. Typed because every think-time sleep costs one;
	// a per-sleep capturing closure was a measurable fraction of the model's
	// per-request allocations.
	EvThreadWake
	// EvThreadWakeBlocked wakes a thread only if it is still blocked on a wait
	// queue — the receive-timeout timer (SO_RCVTIMEO, epoll_wait timeout).
	// Distinct from EvThreadWake because a stale timeout must never wake a
	// thread that has since gone to sleep.
	EvThreadWakeBlocked

	numEvKinds // table size; must stay last
)

// evFunc marks an event scheduled through At/After/Send: Tgt holds the
// func() to call. It lives outside the EvKind namespace exposed to models
// (AtEvent and RegisterHandler reject kinds >= numEvKinds), so only this
// package can schedule one.
const evFunc EvKind = 0xFF

var evKindNames = [numEvKinds]string{
	evNone:              "evNone",
	EvPacketHop:         "EvPacketHop",
	EvSwitchTxDone:      "EvSwitchTxDone",
	EvSwitchWake:        "EvSwitchWake",
	EvNicTx:             "EvNicTx",
	EvNicRxIntr:         "EvNicRxIntr",
	EvTimerTick:         "EvTimerTick",
	EvKernelSpan:        "EvKernelSpan",
	EvAppTick:           "EvAppTick",
	EvLoopback:          "EvLoopback",
	EvThreadWake:        "EvThreadWake",
	EvThreadWakeBlocked: "EvThreadWakeBlocked",
}

// String names the kind for panics and traces.
func (k EvKind) String() string {
	if k < numEvKinds && evKindNames[k] != "" {
		return evKindNames[k]
	}
	if k == evFunc {
		return "evFunc"
	}
	return fmt.Sprintf("EvKind(%d)", uint8(k))
}

// Event is a typed event record: what to do (Kind), two scalar payload words
// (Obj, Arg) and the model objects involved (Tgt, Ref). Scheduling an Event
// copies it by value into the engine's slot table; nothing is allocated.
type Event struct {
	// Kind selects the handler. Must be a registered, non-zero kind.
	Kind EvKind
	// Obj is a small scalar payload word (e.g. a port index).
	Obj uint32
	// Arg is a wide scalar payload word (e.g. a timestamp or byte count).
	Arg uint64
	// Tgt is the primary model object the handler operates on.
	Tgt any
	// Ref is a secondary object reference (e.g. the packet in flight).
	Ref any
}

// Handler executes one typed event. now is the event's timestamp (the
// engine clock has already advanced to it).
type Handler func(now Time, ev Event)

// HandlerRegistrar is the registration surface of the jump table. Both
// *Engine and *ParallelEngine implement it; model packages expose a
// RegisterEventHandlers(r HandlerRegistrar) that claims their kinds, and
// core.New invokes those at wiring time. Tests that drive an Engine directly
// must do the same before scheduling typed events — dispatching a kind with
// no handler panics.
type HandlerRegistrar interface {
	// RegisterHandler installs h as the handler for kind k. Registering the
	// same kind again replaces the handler (last registration wins), so
	// model packages may re-register freely when their registration helpers
	// cascade through shared dependencies.
	RegisterHandler(k EvKind, h Handler)
}

// handlerTable is the per-engine jump table. Partitions of a ParallelEngine
// share one table, so a kind registered on the parallel engine dispatches
// identically on every partition.
type handlerTable [numEvKinds]Handler

func (t *handlerTable) register(k EvKind, h Handler) {
	if k == evNone || k >= numEvKinds {
		panic(fmt.Sprintf("sim: RegisterHandler: invalid event kind %v", k))
	}
	if h == nil {
		panic(fmt.Sprintf("sim: RegisterHandler: nil handler for %v", k))
	}
	t[k] = h
}

// checkKind validates an Event before it enters the queue.
func checkKind(k EvKind) {
	if k == evNone || k >= numEvKinds {
		panic(fmt.Sprintf("sim: AtEvent: invalid event kind %v (kinds are the sim.Ev* constants)", k))
	}
}
