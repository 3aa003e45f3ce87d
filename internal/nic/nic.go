// Package nic models the abstract Ethernet NIC of the paper's Figure 4: an
// Intel 8254x-style device with one TX and one RX descriptor ring,
// scatter/gather DMA (zero-copy), and interrupt mitigation. The NIC here is
// the "hardware": it owns the rings and the wire, raises interrupts, and
// exposes ring operations to the device driver implemented in the simulated
// kernel (RX/TX interrupt mitigation and the NAPI polling interface live in
// the driver, as in Linux).
//
// Checksum offload is modeled as in the paper: no CPU time is charged for
// checksums anywhere ("we turn off the packet checksum feature in the Linux
// kernel to emulate having a hardware checksum offloading engine").
package nic

import (
	"fmt"

	"diablo/internal/link"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Params configures the device.
type Params struct {
	// TxRing and RxRing are the descriptor ring sizes in packets (e1000
	// defaults are 256/256).
	TxRing, RxRing int

	// RxITR is the receive interrupt throttle: after an RX interrupt fires,
	// the next one is delayed until RxITR has elapsed (Intel ITR register).
	// Zero disables mitigation. Packets arriving while throttled are
	// batched into the next interrupt.
	RxITR sim.Duration
}

// Defaults returns e1000-like defaults: 256-entry rings, light interrupt
// mitigation.
func Defaults() Params {
	return Params{TxRing: 256, RxRing: 256, RxITR: 20 * sim.Microsecond}
}

// Validate checks the ring sizes.
func (p Params) Validate() error {
	if p.TxRing <= 0 || p.RxRing <= 0 {
		return fmt.Errorf("nic: ring sizes must be positive: %+v", p)
	}
	if p.RxITR < 0 {
		return fmt.Errorf("nic: negative RxITR")
	}
	return nil
}

// Stats counts device-level events.
type Stats struct {
	TxPackets  uint64
	RxPackets  uint64
	RxOverruns uint64 // frames dropped because the RX ring was full
	RxIRQs     uint64 // interrupts actually raised
}

// NIC is one simulated network interface.
type NIC struct {
	sched  sim.Scheduler
	params Params
	wire   *link.Link // egress link to the ToR switch
	pool   *packet.Pool

	// The descriptor rings are head-indexed FIFOs (pop advances the head and
	// reuses the backing array), mirroring real descriptor rings: servicing
	// them allocates nothing.
	txq     []*packet.Packet
	txqHead int
	txBusy  bool

	rxq          []*packet.Packet
	rxqHead      int
	rxIntEnabled bool
	rxIntPending bool
	lastRxInt    sim.Time

	// stalled freezes the DMA engines and interrupt generation (a fault-layer
	// ring stall): queued TX descriptors stop draining and RX interrupts stop
	// firing, while arriving frames keep filling the RX ring until it
	// overruns — exactly what a wedged device looks like to the driver.
	stalled bool

	// OnRxInterrupt is invoked in "hardware interrupt" context when the
	// device raises an RX interrupt; the kernel driver converts it into
	// interrupt-handler work on the CPU.
	OnRxInterrupt func()

	// OnTxDrain is invoked when a TX descriptor is freed, letting the
	// driver push queued (qdisc) frames.
	OnTxDrain func()

	Stats Stats
}

// New creates a NIC transmitting on wire.
func New(sched sim.Scheduler, params Params, wire *link.Link) (*NIC, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &NIC{
		sched:        sched,
		params:       params,
		wire:         wire,
		rxIntEnabled: true,
		lastRxInt:    sim.Time(-1 << 62),
	}, nil
}

// Params returns the device configuration.
func (n *NIC) Params() Params { return n.params }

// SetPool attaches the partition's packet pool. The NIC releases frames it
// drops (RX overruns) and everything still sitting in its rings at
// ReleaseInFlight time; a nil pool leaves the device in unpooled heap mode.
func (n *NIC) SetPool(p *packet.Pool) { n.pool = p }

// Wire returns the egress link.
func (n *NIC) Wire() *link.Link { return n.wire }

// --- TX path ---------------------------------------------------------------

// TxSpace returns the number of free TX descriptors.
func (n *NIC) TxSpace() int { return n.params.TxRing - n.TxPending() }

// Transmit places pkt on the TX ring; it returns false if the ring is full
// (the driver's qdisc must hold the frame). DMA engines then clock frames
// onto the wire in order.
func (n *NIC) Transmit(pkt *packet.Packet) bool {
	if n.TxPending() >= n.params.TxRing {
		return false
	}
	n.txq = append(n.txq, pkt)
	n.kickTx()
	return true
}

// SetStalled freezes or resumes the device. Resuming restarts the TX DMA and
// re-evaluates the RX interrupt condition, so frames queued during the stall
// flow again (batched into one interrupt, as after a real wedge clears).
func (n *NIC) SetStalled(stalled bool) {
	n.stalled = stalled
	if !stalled {
		n.kickTx()
		n.maybeRaiseRxInt()
	}
}

// Stalled reports whether the device is currently stalled.
func (n *NIC) Stalled() bool { return n.stalled }

func (n *NIC) kickTx() {
	if n.txBusy || n.stalled || n.TxPending() == 0 {
		return
	}
	pkt := n.txq[n.txqHead]
	n.txBusy = true
	pkt.SentAt = n.sched.Now()
	txDone := n.wire.Send(pkt)
	n.sched.AtEvent(txDone, sim.Event{Kind: sim.EvNicTx, Tgt: n})
}

// txDone retires the in-flight TX descriptor (the EvNicTx handler).
func (n *NIC) txDone() {
	n.txq[n.txqHead] = nil
	n.txqHead++
	if n.txqHead == len(n.txq) {
		n.txq = n.txq[:0]
		n.txqHead = 0
	}
	n.txBusy = false
	n.Stats.TxPackets++
	if n.OnTxDrain != nil {
		n.OnTxDrain()
	}
	n.kickTx()
}

// --- RX path ---------------------------------------------------------------

// Receive implements link.Endpoint: a frame has arrived from the wire.
func (n *NIC) Receive(pkt *packet.Packet) {
	if n.RxPending() >= n.params.RxRing {
		n.Stats.RxOverruns++
		// The overrun is this frame's final consumer: hardware drops it on
		// the floor, so its slot goes back to the pool here.
		n.pool.Release(pkt)
		return
	}
	n.rxq = append(n.rxq, pkt)
	n.Stats.RxPackets++
	n.maybeRaiseRxInt()
}

func (n *NIC) maybeRaiseRxInt() {
	if !n.rxIntEnabled || n.rxIntPending || n.stalled || n.RxPending() == 0 {
		return
	}
	now := n.sched.Now()
	fire := n.lastRxInt.Add(sim.Duration(n.params.RxITR))
	if fire < now {
		fire = now
	}
	n.rxIntPending = true
	n.sched.AtEvent(fire, sim.Event{Kind: sim.EvNicRxIntr, Tgt: n})
}

// rxIntrFire delivers a mitigated RX interrupt (the EvNicRxIntr handler).
// Conditions are re-checked at fire time: the driver may have disabled
// interrupts (NAPI), the device may have stalled, or polling may have
// drained the ring since the interrupt was armed.
func (n *NIC) rxIntrFire() {
	n.rxIntPending = false
	if !n.rxIntEnabled || n.stalled || n.RxPending() == 0 {
		return
	}
	n.lastRxInt = n.sched.Now()
	n.Stats.RxIRQs++
	if n.OnRxInterrupt != nil {
		n.OnRxInterrupt()
	}
}

// RegisterEventHandlers installs this package's typed-event handlers on r
// (cascading to the link package's, which the NIC's wire depends on).
// core.New registers every model package at wiring time; tests that drive an
// engine directly must call this before traffic flows.
func RegisterEventHandlers(r sim.HandlerRegistrar) {
	link.RegisterEventHandlers(r)
	r.RegisterHandler(sim.EvNicTx, func(_ sim.Time, ev sim.Event) { ev.Tgt.(*NIC).txDone() })
	r.RegisterHandler(sim.EvNicRxIntr, func(_ sim.Time, ev sim.Event) { ev.Tgt.(*NIC).rxIntrFire() })
}

// PopRx removes and returns the oldest received frame, or nil if the ring is
// empty. Called by the driver's NAPI poll loop.
func (n *NIC) PopRx() *packet.Packet {
	if n.RxPending() == 0 {
		return nil
	}
	pkt := n.rxq[n.rxqHead]
	n.rxq[n.rxqHead] = nil
	n.rxqHead++
	if n.rxqHead == len(n.rxq) {
		n.rxq = n.rxq[:0]
		n.rxqHead = 0
	}
	return pkt
}

// RxPending returns the number of frames waiting in the RX ring.
func (n *NIC) RxPending() int { return len(n.rxq) - n.rxqHead }

// TxPending returns the number of frames occupying TX descriptors.
func (n *NIC) TxPending() int { return len(n.txq) - n.txqHead }

// ReleaseInFlight returns every frame still sitting in the device rings to
// the pool and empties them. Part of the cluster-wide leak audit after Halt:
// a halted run strands frames mid-flight, and the audit proves every one is
// still accounted for. When a TX transmission is in progress the head
// descriptor's frame is owned by the wire (it is either carried by a pending
// EvPacketHop — released by the engine walk — or was already released by a
// link fault drop), so it is skipped here.
func (n *NIC) ReleaseInFlight() {
	start := n.txqHead
	if n.txBusy {
		start++
	}
	for i := start; i < len(n.txq); i++ {
		n.pool.Release(n.txq[i])
	}
	n.txq, n.txqHead, n.txBusy = nil, 0, false
	for i := n.rxqHead; i < len(n.rxq); i++ {
		n.pool.Release(n.rxq[i])
	}
	n.rxq, n.rxqHead = nil, 0
}

// SetRxIntEnabled controls RX interrupt delivery (NAPI disables interrupts
// while polling). Re-enabling checks for frames that arrived while polling.
func (n *NIC) SetRxIntEnabled(on bool) {
	n.rxIntEnabled = on
	if on {
		n.maybeRaiseRxInt()
	}
}
