package kernel

import (
	"fmt"

	"diablo/internal/cpu"
	"diablo/internal/nic"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/tcp"
)

// Router supplies source routes for outgoing packets (implemented by
// topology.Topology). Routes are inline values: computing one is
// allocation-free.
type Router interface {
	Route(src, dst packet.NodeID) packet.Route
}

// Config configures one simulated server.
type Config struct {
	CPU     cpu.Model
	Profile Profile
	NIC     nic.Params
	TCP     tcp.Config

	// QdiscLen is the device transmit queue length in packets between the
	// stack and the NIC ring (Linux txqueuelen, default 1000).
	QdiscLen int

	// UDPRcvBuf is the per-socket datagram receive buffer in bytes.
	UDPRcvBuf int

	// ZeroCopy removes the per-byte copy cost on transmit (scatter/gather
	// DMA, §3.3 NIC model).
	ZeroCopy bool
}

// DefaultConfig returns a 4 GHz server with e1000 NIC and Linux 2.6.39.
func DefaultConfig() Config {
	return Config{
		CPU:       cpu.GHz(4),
		Profile:   Linux2639(),
		NIC:       nic.Defaults(),
		TCP:       tcp.DefaultConfig(),
		QdiscLen:  1000,
		UDPRcvBuf: 208 * 1024,
		ZeroCopy:  true,
	}
}

// Validate checks the composite configuration.
func (c *Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if err := c.NIC.Validate(); err != nil {
		return err
	}
	if err := c.TCP.Validate(); err != nil {
		return err
	}
	if c.QdiscLen <= 0 {
		return fmt.Errorf("kernel: QdiscLen must be positive")
	}
	if c.UDPRcvBuf <= 0 {
		return fmt.Errorf("kernel: UDPRcvBuf must be positive")
	}
	return nil
}

// kworkOp selects the continuation of a kernel work item. The per-packet
// paths (NAPI delivery, TCP transmit) run millions of times per simulated
// second; carrying the packet plus a fixed op code instead of a capturing
// closure removes one heap allocation per item.
type kworkOp uint8

const (
	kwFn          kworkOp = iota // run fn (cold control paths)
	kwDeliverNapi                // deliver pkt, then continue the NAPI poll loop
	kwTransmit                   // transmit pkt (TCP segment / RST output)
	kwNapiPoll                   // enter the NAPI poll loop (IRQ entry, no pkt)
)

// kwork is one unit of kernel-context CPU work.
type kwork struct {
	kind KernelSpanKind
	d    sim.Duration
	op   kworkOp
	pkt  *packet.Packet
	fn   func()
}

// KernelSpanKind classifies kernel-context CPU work for observability
// (Chrome-trace kernel lanes). It does not influence scheduling.
type KernelSpanKind uint8

const (
	KSpanOther   KernelSpanKind = iota // uncategorized kernel work
	KSpanIRQ                           // hardware interrupt entry
	KSpanSoftIRQ                       // NAPI poll / protocol receive processing
	KSpanTxTCP                         // TCP segment transmit processing
)

// String returns the trace label for the span kind.
func (k KernelSpanKind) String() string {
	switch k {
	case KSpanIRQ:
		return "irq"
	case KSpanSoftIRQ:
		return "softirq"
	case KSpanTxTCP:
		return "tcp_tx"
	default:
		return "kernel"
	}
}

// MachineStats aggregates per-server counters.
type MachineStats struct {
	QdiscDrops   uint64
	UDPRcvDrops  uint64
	LoopbackPkts uint64
	Syscalls     uint64
	CtxSwitches  uint64
	Interrupts   uint64
}

// Machine is one simulated server: a single core, its kernel state, its NIC
// and its sockets. All methods must be invoked from the simulation's event
// context (or from a Thread belonging to this machine).
type Machine struct {
	eng  sim.Scheduler
	node packet.NodeID
	cfg  Config
	rng  *sim.Rand

	// slowdown stretches every CPU cost by this factor (>= 1). It models a
	// straggler window (thermal throttling, a co-located noisy neighbour):
	// the fault layer raises it for a bounded window and restores it to 1.
	slowdown float64

	// CPU executor state. kq is a head-indexed FIFO: popping advances kqHead
	// and the slot storage is reused once the queue drains, so steady-state
	// kernel work costs no allocations (a naive kq = kq[1:] re-allocates on
	// every push once the spare capacity is consumed).
	kq         []kwork
	kqHead     int
	kActive    bool
	kRun       kwork   // the kernel work item executing (valid while kActive)
	cur        *Thread // thread owning the CPU (may be paused by kernel work)
	chunkEvent sim.EventID
	chunkArmed bool
	chunkStart sim.Time
	chunkLen   sim.Duration
	runq       []*Thread // head-indexed like kq: context switches allocate nothing
	runqHead   int
	lastRun    *Thread
	inThread   bool // a thread goroutine is executing right now
	parked     chan struct{}
	threads    []*Thread

	// Network state. qdisc is head-indexed like kq. pool is the partition's
	// packet slab pool (nil = unpooled heap mode); see packet.Pool for the
	// ownership rules.
	dev       *nic.NIC
	router    Router
	pool      *packet.Pool
	qdisc     []*packet.Packet
	qdiscHead int
	udpSocks  map[packet.Port]*UDPSocket
	listeners map[packet.Port]*TCPListener
	conns     map[connKey]*TCPSocket
	nextPort  packet.Port

	Util      cpu.Util
	Stats     MachineStats
	tcpClosed tcpStatsTotal

	// Observability hooks (internal/obs). All are optional; every call site
	// guards with a nil check so a detached machine pays one pointer test.
	// Hooks run in this machine's event context and must not mutate model
	// state.

	// OnKernelSpan fires when a kernel-context work item starts executing on
	// the CPU, with its classification and duration.
	OnKernelSpan func(kind KernelSpanKind, start sim.Time, d sim.Duration)
	// OnSyscallSpan fires after a thread's syscall CPU charge completes.
	OnSyscallSpan func(thread string, start sim.Time, d sim.Duration)
	// OnPacketDelivered fires when a received packet reaches socket demux.
	OnPacketDelivered func(pkt *packet.Packet, at sim.Time)
}

// tcpStatsTotal accumulates protocol stats of closed connections.
type tcpStatsTotal struct{ tcp.Stats }

func (t *tcpStatsTotal) accumulate(s tcp.Stats) {
	t.SegsOut += s.SegsOut
	t.SegsIn += s.SegsIn
	t.BytesOut += s.BytesOut
	t.BytesIn += s.BytesIn
	t.Retransmits += s.Retransmits
	t.FastRetransmits += s.FastRetransmits
	t.Timeouts += s.Timeouts
	t.DupAcksIn += s.DupAcksIn
}

// TCPStats returns the machine's aggregate TCP protocol statistics across
// live and closed connections.
func (m *Machine) TCPStats() tcp.Stats {
	total := m.tcpClosed
	for _, s := range m.conns {
		total.accumulate(s.conn.Stats)
	}
	return total.Stats
}

type connKey struct {
	local      packet.Port
	remoteNode packet.NodeID
	remotePort packet.Port
}

// New creates a machine. wire is the NIC's egress link toward the ToR; the
// machine's NIC is registered as the endpoint for the reverse link by the
// cluster builder via Machine.NIC().
func New(eng sim.Scheduler, node packet.NodeID, cfg Config, router Router, dev *nic.NIC, seed uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		eng:       eng,
		node:      node,
		cfg:       cfg,
		slowdown:  1,
		rng:       sim.NewRand(sim.DeriveSeed(seed, fmt.Sprintf("machine-%d", node))),
		parked:    make(chan struct{}),
		dev:       dev,
		router:    router,
		udpSocks:  make(map[packet.Port]*UDPSocket),
		listeners: make(map[packet.Port]*TCPListener),
		conns:     make(map[connKey]*TCPSocket),
		nextPort:  32768,
	}
	dev.OnRxInterrupt = m.rxInterrupt
	dev.OnTxDrain = m.drainQdisc
	return m, nil
}

// Node returns the machine's node ID.
func (m *Machine) Node() packet.NodeID { return m.node }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NIC returns the machine's network device.
func (m *Machine) NIC() *nic.NIC { return m.dev }

// Rand returns the machine's deterministic random stream.
func (m *Machine) Rand() *sim.Rand { return m.rng }

// Now returns the simulated time.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Scheduler returns the event scheduler the machine runs on (the serial
// engine, or the machine's partition handle in a parallel run).
func (m *Machine) Scheduler() sim.Scheduler { return m.eng }

// SetPool installs the partition's packet pool. Installed once at wiring
// time; a nil pool (the default) keeps plain heap allocation, which is the
// unpooled comparison mode.
func (m *Machine) SetPool(p *packet.Pool) { m.pool = p }

// Pool returns the machine's packet pool (nil in unpooled mode).
func (m *Machine) Pool() *packet.Pool { return m.pool }

// newPacket allocates a zeroed packet from the partition pool. Every packet
// the machine originates (UDP datagram fragments, TCP segments, RSTs) comes
// through here so the creator side of the ownership rule has one spelling.
func (m *Machine) newPacket() *packet.Packet { return m.pool.Get() }

// SetSlowdown sets the straggler factor: every subsequent CPU cost is
// stretched by f (clamped to >= 1). CPU chunks already in flight complete at
// their original length, so the window granularity is one scheduler chunk.
func (m *Machine) SetSlowdown(f float64) {
	if f < 1 {
		f = 1
	}
	m.slowdown = f
}

// Slowdown returns the current straggler factor (1 = nominal speed).
func (m *Machine) Slowdown() float64 { return m.slowdown }

// scale applies the straggler factor to a CPU cost.
func (m *Machine) scale(d sim.Duration) sim.Duration {
	if m.slowdown == 1 {
		return d
	}
	return sim.Duration(float64(d) * m.slowdown)
}

// instrTime converts instructions to time on this machine's core.
func (m *Machine) instrTime(instr int64) sim.Duration { return m.scale(m.cfg.CPU.Time(instr)) }

// copyCost returns the user/kernel copy time for n bytes.
func (m *Machine) copyCost(n int) sim.Duration {
	return m.scale(m.cfg.CPU.Time(int64(float64(n) * m.cfg.Profile.CopyPerByte)))
}

// --- CPU executor ------------------------------------------------------------

// kernelWork queues non-preemptible kernel-context CPU work (interrupt and
// softirq handling, protocol processing). Kernel work has priority over user
// threads: a running user chunk is paused until the kernel queue drains.
func (m *Machine) kernelWork(kind KernelSpanKind, d sim.Duration, fn func()) {
	m.kq = append(m.kq, kwork{kind: kind, d: d, fn: fn})
	m.scheduleCPU()
}

// kernelWorkPkt is the closure-free spelling of kernelWork for the fixed
// per-packet continuations (kwDeliverNapi, kwTransmit): same FIFO, same
// timing, no capture allocation.
func (m *Machine) kernelWorkPkt(kind KernelSpanKind, d sim.Duration, op kworkOp, pkt *packet.Packet) {
	m.kq = append(m.kq, kwork{kind: kind, d: d, op: op, pkt: pkt})
	m.scheduleCPU()
}

// scheduleCPU advances the CPU state machine. It is safe to call from any
// engine-context site; while a thread goroutine is live it defers to the
// resumeThread continuation.
func (m *Machine) scheduleCPU() {
	if m.inThread || m.kActive {
		return
	}
	// Kernel work first.
	if m.kqHead < len(m.kq) {
		if m.chunkArmed {
			m.pauseChunk()
		}
		w := m.kq[m.kqHead]
		m.kq[m.kqHead] = kwork{}
		m.kqHead++
		if m.kqHead == len(m.kq) {
			m.kq = m.kq[:0]
			m.kqHead = 0
		}
		m.kActive = true
		m.kRun = w
		m.Util.Charge(w.d)
		if m.OnKernelSpan != nil {
			m.OnKernelSpan(w.kind, m.eng.Now(), w.d)
		}
		// Typed event on the hottest kernel path (every packet costs an IRQ
		// span, a softirq span and a TX span); the work item itself is parked
		// in m.kRun rather than captured in a closure.
		m.eng.AfterEvent(w.d, sim.Event{Kind: sim.EvKernelSpan, Tgt: m})
		return
	}
	if m.chunkArmed {
		return // a user chunk is already running
	}
	// Pick a user thread.
	if m.cur == nil {
		if m.RunQueueLen() == 0 {
			return // idle
		}
		m.cur = m.runq[m.runqHead]
		m.runq[m.runqHead] = nil
		m.runqHead++
		if m.runqHead == len(m.runq) {
			m.runq = m.runq[:0]
			m.runqHead = 0
		}
		if m.lastRun != m.cur {
			m.cur.remaining += m.instrTime(m.cfg.Profile.CtxSwitchInstr)
			m.Stats.CtxSwitches++
		}
		m.cur.sliceLeft = m.cfg.Profile.TimeSlice
		m.lastRun = m.cur
	}
	t := m.cur
	if t.remaining <= 0 {
		// The thread's pending CPU demand is satisfied: let it run app code.
		m.resumeThread(t)
		return
	}
	chunk := t.remaining
	if m.RunQueueLen() > 0 && chunk > t.sliceLeft {
		chunk = t.sliceLeft
	}
	if chunk <= 0 {
		chunk = t.remaining // degenerate slice: run a full demand chunk
	}
	m.chunkArmed = true
	m.chunkStart = m.eng.Now()
	m.chunkLen = chunk
	m.chunkEvent = m.eng.AfterEvent(chunk, sim.Event{Kind: sim.EvTimerTick, Tgt: m})
}

// kernelSpanDone completes the executing kernel work item (the EvKernelSpan
// handler): the continuation runs with the CPU released, exactly as the old
// per-item closure did.
func (m *Machine) kernelSpanDone() {
	w := m.kRun
	m.kRun = kwork{} // release the continuation closure / packet reference
	m.kActive = false
	switch w.op {
	case kwDeliverNapi:
		m.deliver(w.pkt)
		m.napiPoll()
	case kwTransmit:
		m.transmit(w.pkt)
	case kwNapiPoll:
		m.napiPoll()
	default:
		if w.fn != nil {
			w.fn()
		}
	}
	m.scheduleCPU()
}

// RegisterEventHandlers installs this package's typed-event handlers on r
// (cascading to the NIC and link packages', which every machine depends on).
// core.New registers all model packages at wiring time; tests that drive an
// engine directly must call this before running machines.
func RegisterEventHandlers(r sim.HandlerRegistrar) {
	nic.RegisterEventHandlers(r)
	r.RegisterHandler(sim.EvKernelSpan, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*Machine).kernelSpanDone()
	})
	r.RegisterHandler(sim.EvTimerTick, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*Machine).chunkDone()
	})
	r.RegisterHandler(sim.EvLoopback, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*Machine).deliver(ev.Ref.(*packet.Packet))
	})
	r.RegisterHandler(sim.EvThreadWake, func(_ sim.Time, ev sim.Event) {
		t := ev.Tgt.(*Thread)
		t.m.wake(t)
	})
	r.RegisterHandler(sim.EvThreadWakeBlocked, func(_ sim.Time, ev sim.Event) {
		// Timeout timers are not cancelled on early success; a stale record
		// must only wake a thread still blocked on a wait queue, exactly as
		// the closure it replaced checked.
		t := ev.Tgt.(*Thread)
		if t.state == threadBlocked {
			t.m.wake(t)
		}
	})
}

func (m *Machine) chunkDone() {
	m.chunkArmed = false
	t := m.cur
	m.Util.Charge(m.chunkLen)
	t.remaining -= m.chunkLen
	t.sliceLeft -= m.chunkLen
	if t.remaining > 0 {
		// Slice expired with demand left: rotate to the runqueue tail.
		m.runq = append(m.runq, t)
		m.cur = nil
	}
	m.scheduleCPU()
}

func (m *Machine) pauseChunk() {
	elapsed := m.eng.Now().Sub(m.chunkStart)
	m.Util.Charge(elapsed)
	m.cur.remaining -= elapsed
	m.cur.sliceLeft -= elapsed
	m.eng.Cancel(m.chunkEvent)
	m.chunkArmed = false
}

// resumeThread hands the (single) flow of control to t's goroutine and waits
// for it to park again, then reschedules the CPU.
func (m *Machine) resumeThread(t *Thread) {
	m.inThread = true
	t.resume <- struct{}{}
	<-m.parked
	m.inThread = false
	m.scheduleCPU()
}

// wake makes a blocked or sleeping thread runnable, charging the scheduler
// wakeup cost.
func (m *Machine) wake(t *Thread) {
	if t.state != threadBlocked && t.state != threadSleeping {
		return
	}
	t.state = threadRunnable
	t.remaining += m.instrTime(m.cfg.Profile.WakeupInstr)
	m.runq = append(m.runq, t)
	m.scheduleCPU()
}

// --- transmit path -------------------------------------------------------------

// transmit routes pkt and hands it to the NIC (or the loopback path).
func (m *Machine) transmit(pkt *packet.Packet) {
	pkt.Src.Node = m.node
	if pkt.Dst.Node == m.node {
		m.Stats.LoopbackPkts++
		m.eng.AfterEvent(10*sim.Microsecond, sim.Event{Kind: sim.EvLoopback, Tgt: m, Ref: pkt})
		return
	}
	pkt.Route = m.router.Route(m.node, pkt.Dst.Node)
	pkt.Hop = 0
	if m.dev.Transmit(pkt) {
		return
	}
	if len(m.qdisc)-m.qdiscHead >= m.cfg.QdiscLen {
		m.Stats.QdiscDrops++
		m.pool.Release(pkt) // drop site: nothing downstream will ever see it
		return
	}
	m.qdisc = append(m.qdisc, pkt)
}

// drainQdisc pushes queued frames into freed TX descriptors.
func (m *Machine) drainQdisc() {
	for m.qdiscHead < len(m.qdisc) {
		if !m.dev.Transmit(m.qdisc[m.qdiscHead]) {
			return
		}
		m.qdisc[m.qdiscHead] = nil
		m.qdiscHead++
	}
	m.qdisc = m.qdisc[:0]
	m.qdiscHead = 0
}

// --- receive path --------------------------------------------------------------

// rxInterrupt is the NIC's hardware interrupt: charge IRQ entry, then poll
// (NAPI: interrupts stay masked while the poll loop drains the ring).
func (m *Machine) rxInterrupt() {
	m.Stats.Interrupts++
	m.dev.SetRxIntEnabled(false)
	// kwNapiPoll, not kernelWork(..., m.napiPoll): the method value would
	// allocate a bound-closure per interrupt, i.e. per received packet.
	m.kernelWorkPkt(KSpanIRQ, m.instrTime(m.cfg.Profile.IRQInstr), kwNapiPoll, nil)
}

// napiPoll processes one frame per kernel-work item until the ring drains,
// then re-enables interrupts.
func (m *Machine) napiPoll() {
	pkt := m.dev.PopRx()
	if pkt == nil {
		m.dev.SetRxIntEnabled(true)
		return
	}
	var cost sim.Duration
	switch pkt.Proto {
	case packet.ProtoTCP:
		cost = m.instrTime(m.cfg.Profile.RxTCPInstr)
	default:
		cost = m.instrTime(m.cfg.Profile.RxUDPInstr)
	}
	m.kernelWorkPkt(KSpanSoftIRQ, cost, kwDeliverNapi, pkt)
}

// deliver demultiplexes a received packet to its socket, then releases it:
// socket delivery is the packet's final consumer (UDP copies the datagram
// descriptor out, TCP extracts the header and payload boundaries, and every
// no-receiver branch just drops), so by the ownership rules the packet dies
// here — whether it arrived over the wire or over loopback.
func (m *Machine) deliver(pkt *packet.Packet) {
	if m.OnPacketDelivered != nil {
		m.OnPacketDelivered(pkt, m.eng.Now())
	}
	switch pkt.Proto {
	case packet.ProtoUDP:
		m.deliverUDP(pkt)
	case packet.ProtoTCP:
		m.deliverTCP(pkt)
	}
	m.pool.Release(pkt)
}

func (m *Machine) deliverTCP(pkt *packet.Packet) {
	key := connKey{local: pkt.Dst.Port, remoteNode: pkt.Src.Node, remotePort: pkt.Src.Port}
	if sock, ok := m.conns[key]; ok {
		sock.conn.Input(pkt)
		return
	}
	// No connection: a SYN for a listening port creates one.
	if pkt.TCP.Flags&packet.FlagSYN != 0 && pkt.TCP.Flags&packet.FlagACK == 0 {
		if lis, ok := m.listeners[pkt.Dst.Port]; ok {
			lis.incoming(pkt, key)
			return
		}
	}
	// Otherwise answer with a RST so peers retransmitting into a vanished
	// connection (e.g. a lost final ACK of a close handshake) terminate
	// instead of backing off forever.
	if pkt.TCP.Flags&packet.FlagRST == 0 {
		rst := m.newPacket()
		rst.Src = pkt.Dst
		rst.Dst = pkt.Src
		rst.Proto = packet.ProtoTCP
		rst.TCP = packet.TCPHdr{
			Flags: packet.FlagRST | packet.FlagACK,
			Seq:   pkt.TCP.Ack,
			Ack:   pkt.TCP.Seq + uint32(pkt.PayloadBytes),
		}
		m.kernelWorkPkt(KSpanTxTCP, m.instrTime(m.cfg.Profile.TxTCPInstr/2), kwTransmit, rst)
	}
}

// ephemeralPort allocates a local port for an outgoing connection.
func (m *Machine) ephemeralPort() packet.Port {
	for {
		p := m.nextPort
		m.nextPort++
		if m.nextPort == 0 {
			m.nextPort = 32768
		}
		if _, udpTaken := m.udpSocks[p]; udpTaken {
			continue
		}
		return p
	}
}

// tcpEnv adapts the machine to tcp.Env, charging TX costs per segment.
type tcpEnv struct {
	m *Machine
}

func (e tcpEnv) Now() sim.Time                        { return e.m.eng.Now() }
func (e tcpEnv) At(t sim.Time, fn func()) sim.EventID { return e.m.eng.At(t, fn) }
func (e tcpEnv) Cancel(id sim.EventID)                { e.m.eng.Cancel(id) }

// Output charges the per-segment transmit cost in kernel context, then hands
// the segment to the driver. FIFO kernel work keeps segments ordered.
func (e tcpEnv) Output(pkt *packet.Packet) {
	m := e.m
	m.kernelWorkPkt(KSpanTxTCP, m.instrTime(m.cfg.Profile.TxTCPInstr), kwTransmit, pkt)
}

// NewPacket allocates an outgoing segment from the machine's partition pool.
func (e tcpEnv) NewPacket() *packet.Packet { return e.m.newPacket() }

// RunQueueLen returns the number of runnable threads waiting for the CPU
// (excluding the one currently holding it). Observability accessor; call
// from this machine's event context.
func (m *Machine) RunQueueLen() int { return len(m.runq) - m.runqHead }

// QdiscQueued returns the number of packets queued between the stack and the
// NIC ring. Observability accessor; call from this machine's event context.
func (m *Machine) QdiscQueued() int { return len(m.qdisc) - m.qdiscHead }

// ReleaseInFlight releases every packet the machine still holds — the qdisc,
// queued kernel work items and the executing one — into the pool. Post-run
// accounting for the leak-balance gate (core.Cluster.ReleaseInFlight); must
// not be called while the engine is running.
func (m *Machine) ReleaseInFlight() {
	for _, pkt := range m.qdisc[m.qdiscHead:] {
		m.pool.Release(pkt)
	}
	m.qdisc, m.qdiscHead = nil, 0
	for _, w := range m.kq[m.kqHead:] {
		m.pool.Release(w.pkt) // nil for closure-op items: no-op
	}
	m.kq, m.kqHead = nil, 0
	if m.kActive {
		m.pool.Release(m.kRun.pkt)
		m.kRun = kwork{}
	}
}

// Shutdown kills every thread on the machine (used by experiment teardown to
// release goroutines). The engine must not be running.
func (m *Machine) Shutdown() {
	for _, t := range m.threads {
		if t.state == threadDead {
			continue
		}
		t.killed = true
		t.resume <- struct{}{}
		<-m.parked
	}
}
