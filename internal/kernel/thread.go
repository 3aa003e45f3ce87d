package kernel

import (
	"fmt"

	"diablo/internal/sim"
)

type threadState uint8

const (
	threadRunnable threadState = iota
	threadOnCPU
	threadBlocked
	threadSleeping
	threadDead
)

// killSentinel is the panic value used to unwind killed threads.
type killSentinel struct{}

// Thread is one simulated kernel thread. Application code runs in a real
// goroutine but advances only when the machine's scheduler grants it the
// simulated CPU; every interaction with the simulated world goes through
// Thread methods, which charge CPU time and block deterministically.
//
// The goroutine and the simulation engine strictly alternate (one of them is
// always parked), so simulations remain single-threaded and deterministic.
type Thread struct {
	m    *Machine
	name string

	state     threadState
	resume    chan struct{}
	remaining sim.Duration // CPU time owed before app code may continue
	sliceLeft sim.Duration
	killed    bool
}

// Spawn creates a thread running fn. The thread becomes runnable after the
// clone cost; Spawn may be called during cluster construction or from
// another thread.
func (m *Machine) Spawn(name string, fn func(*Thread)) *Thread {
	t := &Thread{
		m:      m,
		name:   name,
		state:  threadRunnable,
		resume: make(chan struct{}),
	}
	t.remaining = m.instrTime(m.cfg.Profile.SpawnInstr)
	m.threads = append(m.threads, t)
	// Coroutine-style threading: at most one thread goroutine runs at a time,
	// handed control through the resume/parked channels, so execution order is
	// the engine's event order, not the Go scheduler's.
	go t.main(fn) //simlint:allow detlint coroutine handoff: exactly one runnable goroutine, sequenced by the engine
	// Enqueue via an event so the runqueue push happens inside the engine's
	// run loop regardless of the caller's context.
	m.eng.At(m.eng.Now(), func() {
		m.runq = append(m.runq, t)
		m.scheduleCPU()
	})
	return t
}

// main is the goroutine body: wait to be scheduled, run fn, then die.
func (t *Thread) main(fn func(*Thread)) {
	<-t.resume
	if !t.killed {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(killSentinel); !ok {
						panic(r)
					}
				}
			}()
			t.state = threadOnCPU
			fn(t)
		}()
	}
	// Exit protocol: detach from the CPU and hand control back for good.
	t.state = threadDead
	if t.m.cur == t {
		t.m.cur = nil
	}
	t.m.parked <- struct{}{}
}

// park hands control back to the machine and waits to be granted the CPU
// again. Must only be called from the thread's own goroutine.
func (t *Thread) park() {
	t.m.parked <- struct{}{}
	<-t.resume
	if t.killed {
		panic(killSentinel{})
	}
	t.state = threadOnCPU
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Now returns the simulated time.
func (t *Thread) Now() sim.Time { return t.m.eng.Now() }

// Rand returns the machine's deterministic random stream.
func (t *Thread) Rand() *sim.Rand { return t.m.rng }

// Compute burns the given number of instructions of CPU time (application
// work). The call returns when the simulated core has executed them,
// accounting for preemption by interrupts and other threads.
func (t *Thread) Compute(instructions int64) {
	t.computeTime(t.m.instrTime(instructions))
}

// computeTime burns d of CPU demand.
func (t *Thread) computeTime(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.remaining += d
	t.state = threadRunnable // remains current on the CPU
	t.park()
}

// syscall charges the base syscall cost plus extra instructions.
func (t *Thread) syscall(extra int64) {
	t.m.Stats.Syscalls++
	if t.m.OnSyscallSpan != nil {
		start := t.Now()
		t.Compute(t.m.cfg.Profile.SyscallInstr + extra)
		t.m.OnSyscallSpan(t.name, start, t.Now().Sub(start))
		return
	}
	t.Compute(t.m.cfg.Profile.SyscallInstr + extra)
}

// Sleep blocks the thread for d of simulated time (nanosleep).
func (t *Thread) Sleep(d sim.Duration) {
	t.syscall(0)
	if d <= 0 {
		return
	}
	m := t.m
	t.state = threadSleeping
	if m.cur == t {
		m.cur = nil
	}
	m.eng.AfterEvent(d, sim.Event{Kind: sim.EvThreadWake, Tgt: t})
	t.park()
}

// Yield gives up the CPU voluntarily (sched_yield).
func (t *Thread) Yield() {
	m := t.m
	t.syscall(0)
	if m.RunQueueLen() == 0 {
		return
	}
	t.state = threadRunnable
	if m.cur == t {
		m.cur = nil
	}
	m.runq = append(m.runq, t)
	t.park()
}

// Exit terminates the thread from within (fn simply returning is
// equivalent).
func (t *Thread) Exit() {
	panic(killSentinel{})
}

// block parks the thread until q wakes it. The caller must have enqueued t
// on q already.
func (t *Thread) block() {
	m := t.m
	t.state = threadBlocked
	if m.cur == t {
		m.cur = nil
	}
	t.park()
}

// waitQueue is a FIFO of threads blocked on a condition. Head-indexed like
// Machine.kq: popping advances head and the backing array is reused, so the
// block/wake cycle every request goes through allocates nothing in steady
// state (a naive waiters = waiters[1:] strands the popped capacity and
// re-allocates on every enqueue).
type waitQueue struct {
	waiters []*Thread
	head    int
}

func (q *waitQueue) enqueue(t *Thread) { q.waiters = append(q.waiters, t) }

// wakeOne wakes the oldest still-blocked waiter; reports whether one was
// woken. Stale entries (threads already woken by a timeout, or dead) are
// skipped so wakeups are never lost.
func (q *waitQueue) wakeOne(m *Machine) bool {
	for q.head < len(q.waiters) {
		t := q.waiters[q.head]
		q.waiters[q.head] = nil
		q.head++
		if q.head == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.head = 0
		}
		if t.state != threadBlocked {
			continue
		}
		m.wake(t)
		return true
	}
	return false
}

// wakeAll wakes every waiter.
func (q *waitQueue) wakeAll(m *Machine) {
	for q.wakeOne(m) {
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s@n%d)", t.name, t.m.node)
}
