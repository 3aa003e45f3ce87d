package sim

// Scheduler is the engine-agnostic event-scheduling surface every model
// component programs against. It is satisfied by the sequential *Engine and
// by the per-partition handles of the ParallelEngine, so a NIC, link, switch
// or kernel model is oblivious to whether it runs under the single-threaded
// engine or inside one partition of a conservatively synchronized parallel
// run (DIABLO's one-rack-per-FPGA organization).
//
// All methods must be invoked from the scheduler's own event context (or
// before the run starts): a component in partition i may only call the
// Scheduler it was wired with. Cross-partition interaction goes through
// ParallelEngine.Send or a Cross scheduler, never through another
// partition's local Scheduler.
type Scheduler interface {
	// Now returns the current simulated time.
	Now() Time
	// At schedules fn at the absolute time at (panics if at < Now). General,
	// but a capturing fn allocates its closure; hot paths use AtEvent.
	At(at Time, fn func()) EventID
	// After schedules fn d after the current time (panics if d < 0).
	After(d Duration, fn func()) EventID
	// AtEvent schedules a typed event record at the absolute time at — the
	// zero-allocation lane. ev.Kind must be registered on the engine (see
	// HandlerRegistrar); the same past-time rules as At apply.
	AtEvent(at Time, ev Event) EventID
	// AfterEvent schedules a typed event record d after the current time.
	AfterEvent(d Duration, ev Event) EventID
	// Cancel prevents a scheduled event from running; cancelling a fired or
	// zero EventID is a no-op. Cross-partition events are not cancellable:
	// their Scheduler returns the zero EventID, and cancelling a non-zero ID
	// through a Cross scheduler is recorded as a failed cancel (see
	// ParallelEngine.FailedCrossCancels) rather than silently ignored.
	Cancel(id EventID)
}

// Runner extends Scheduler with run control for code that drives an engine
// directly (tests, tools, the experiment harness).
type Runner interface {
	Scheduler
	// Run dispatches events until the queue drains or Halt is called.
	Run()
	// RunUntil dispatches events with timestamps <= deadline.
	RunUntil(deadline Time)
	// Step dispatches the single next event, if any.
	Step() bool
	// Halt stops the run loop after the current event returns.
	Halt()
	// Pending reports the number of queued events.
	Pending() int
}

// Compile-time interface checks.
var (
	_ Runner           = (*Engine)(nil)
	_ Scheduler        = (*Partition)(nil)
	_ Scheduler        = crossScheduler{}
	_ HandlerRegistrar = (*Engine)(nil)
	_ HandlerRegistrar = (*ParallelEngine)(nil)
)
