package sim

import (
	"testing"
)

// twoPartTraffic builds a 2-partition model in which every quantum carries
// exactly two cross-partition messages (one each way), so the barrier
// exchange path runs with a fixed per-quantum load.
func twoPartTraffic(workers int) *ParallelEngine {
	const q = Microsecond
	pe := NewParallelEngine(2, q)
	pe.SetWorkers(workers)
	for p := 0; p < 2; p++ {
		p := p
		part := pe.Partition(p)
		var tick func()
		tick = func() {
			part.After(q, tick)
			part.Send(1-p, part.Now().Add(q), func() {})
		}
		part.At(0, tick)
	}
	return pe
}

// TestBarrierExchangeBufferReuse pins the allocation-free barrier contract:
// once warmed, the reusable pending merge buffer and the per-edge slabs keep
// their backing capacity across quanta instead of being reallocated, and
// delivered closures are not pinned by the recycled storage.
func TestBarrierExchangeBufferReuse(t *testing.T) {
	pe := twoPartTraffic(1)
	pe.RunUntil(Time(50 * Microsecond)) // warm up ~50 quanta
	capPending := pe.pending.Cap()
	capEdge01 := cap(pe.edges[0*2+1].recs)
	if capPending == 0 || capEdge01 == 0 {
		t.Fatalf("exchange buffers never grew: pending %d edge 0->1 %d", capPending, capEdge01)
	}
	pe.RunUntil(Time(500 * Microsecond)) // ~450 more quanta, same load
	if got := pe.pending.Cap(); got != capPending {
		t.Errorf("pending buffer reallocated under steady load: cap %d -> %d", capPending, got)
	}
	if got := cap(pe.edges[0*2+1].recs); got != capEdge01 {
		t.Errorf("edge slab reallocated under steady load: cap %d -> %d", capEdge01, got)
	}
	// The recycled buffers must not pin the payloads they carried.
	for _, m := range pe.pending.buf[:pe.pending.Cap()] {
		if m.ev.Tgt != nil || m.ev.Ref != nil {
			t.Fatal("pending buffer retains a delivered payload")
		}
	}
	for i := range pe.edges {
		recs := pe.edges[i].recs
		for _, m := range recs[:cap(recs)] {
			if m.ev.Tgt != nil || m.ev.Ref != nil {
				t.Fatal("edge slab retains a flushed payload")
			}
		}
	}
}

// TestBarrierWorkerResultsMatchInline runs the fixed-traffic model inline and
// under the spin-then-park worker barrier and requires identical end state —
// a focused version of the ring invariance test aimed at the barrier itself.
func TestBarrierWorkerResultsMatchInline(t *testing.T) {
	deadline := Time(300 * Microsecond)
	want := twoPartTraffic(1)
	want.RunUntil(deadline)
	got := twoPartTraffic(2)
	got.RunUntil(deadline)
	if got.Executed != want.Executed {
		t.Fatalf("workers=2 executed %d events, inline %d", got.Executed, want.Executed)
	}
	if got.Now() != want.Now() {
		t.Fatalf("workers=2 clock %v, inline %v", got.Now(), want.Now())
	}
	for p := 0; p < 2; p++ {
		if g, w := got.Partition(p).Now(), want.Partition(p).Now(); g != w {
			t.Fatalf("partition %d clock %v, inline %v", p, g, w)
		}
	}
}

// TestBarrierPoolReusableAcrossRuns drives several RunUntil segments on one
// engine so the pool is created and torn down repeatedly around a persistent
// model, covering the shutdown path of the spin-then-park gate.
func TestBarrierPoolReusableAcrossRuns(t *testing.T) {
	pe := twoPartTraffic(2)
	var last Time
	for seg := 1; seg <= 5; seg++ {
		deadline := Time(seg) * Time(40*Microsecond)
		pe.RunUntil(deadline)
		if pe.Now() != deadline {
			t.Fatalf("segment %d stopped at %v, want %v", seg, pe.Now(), deadline)
		}
		if pe.Now() <= last && seg > 1 {
			t.Fatalf("clock did not advance across segments: %v", pe.Now())
		}
		last = pe.Now()
	}
}

// TestPhaser exercises the generation gate directly: spin hand-off, parked
// hand-off, and generation monotonicity.
func TestPhaser(t *testing.T) {
	p := newPhaser()
	g0 := p.current()
	done := make(chan uint64, 1)
	go func() { done <- p.await(g0) }() //simlint:allow detlint test exercises the engine-owned barrier primitive
	p.advance()
	if got := <-done; got != g0+1 {
		t.Fatalf("await returned generation %d, want %d", got, g0+1)
	}
	// A waiter arriving after the advance returns immediately.
	if got := p.await(g0); got != g0+1 {
		t.Fatalf("late await returned %d, want %d", got, g0+1)
	}
}
