package kernel

import (
	"errors"
	"fmt"

	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/tcp"
)

// Socket-layer errors.
var (
	ErrPortInUse    = errors.New("kernel: port in use")
	ErrWouldBlock   = errors.New("kernel: operation would block")
	ErrClosed       = errors.New("kernel: socket closed")
	ErrConnRefused  = errors.New("kernel: connection refused")
	ErrMsgTooLong   = errors.New("kernel: datagram exceeds maximum size")
	ErrNotConnected = errors.New("kernel: socket not connected")
)

// MaxDatagram is the largest UDP datagram the stack accepts (fragmented
// across MTU-sized packets on the wire, like IP fragmentation).
const MaxDatagram = 64 * 1024

// --- epoll -------------------------------------------------------------------

// EpollEvents is a readiness bitmask.
type EpollEvents uint8

// Readiness bits.
const (
	EpollIn EpollEvents = 1 << iota
	EpollOut
	EpollHup
)

// Pollable is a socket that can be registered with an Epoll instance.
type Pollable interface {
	readyMask() EpollEvents
	attach(*Epoll)
	detach(*Epoll)
}

// EpollEvent is one ready notification from Epoll.Wait.
type EpollEvent struct {
	Sock   Pollable
	Events EpollEvents
	Data   any
}

type epollItem struct {
	sock     Pollable
	interest EpollEvents
	data     any
	inReady  bool
}

// Epoll is a level-triggered readiness multiplexer, the syscall interface
// the paper contrasts with blocking pthread sockets (§4.1): applications
// using it "proactively poll the kernel for available data".
type Epoll struct {
	m     *Machine
	items map[Pollable]*epollItem
	// ready is a head-indexed FIFO (see Machine.kq); level-triggered re-queues
	// make this the allocation hot spot of epoll servers otherwise.
	ready     []*epollItem
	readyHead int
	// evbuf is the reusable result buffer Wait hands back to the caller; like
	// the real epoll_wait events array it is valid until the next Wait on
	// this instance.
	evbuf   []EpollEvent
	waiters waitQueue
	kicked  bool
}

// EpollCreate makes a new epoll instance (epoll_create1).
func (t *Thread) EpollCreate() *Epoll {
	t.syscall(0)
	return &Epoll{m: t.m, items: make(map[Pollable]*epollItem)}
}

// Add registers a socket with an interest mask and user data (epoll_ctl).
func (ep *Epoll) Add(t *Thread, sock Pollable, interest EpollEvents, data any) {
	t.syscall(0)
	if _, dup := ep.items[sock]; dup {
		return
	}
	it := &epollItem{sock: sock, interest: interest, data: data}
	ep.items[sock] = it
	sock.attach(ep)
	ep.markReady(sock) // pick up already-ready state (level-triggered)
}

// Del removes a socket (epoll_ctl EPOLL_CTL_DEL).
func (ep *Epoll) Del(t *Thread, sock Pollable) {
	t.syscall(0)
	if it, ok := ep.items[sock]; ok {
		delete(ep.items, sock)
		it.sock = nil // lazily skipped in the ready list
		sock.detach(ep)
	}
}

// Kick forces the next (or a currently blocked) Wait to return, even with no
// ready sockets — the moral equivalent of writing to a self-pipe registered
// with the epoll instance, as multi-threaded servers do for cross-thread
// notification.
func (ep *Epoll) Kick() {
	ep.kicked = true
	ep.waiters.wakeOne(ep.m)
}

// markReady is called by sockets on readiness edges.
func (ep *Epoll) markReady(sock Pollable) {
	it, ok := ep.items[sock]
	if !ok || it.inReady {
		return
	}
	if it.sock.readyMask()&it.interest == 0 {
		return
	}
	it.inReady = true
	ep.ready = append(ep.ready, it)
	ep.waiters.wakeOne(ep.m)
}

// Wait blocks until at least one registered socket is ready, returning up to
// maxEvents (epoll_wait). A negative timeout waits forever; zero polls.
func (ep *Epoll) Wait(t *Thread, maxEvents int, timeout simDuration) []EpollEvent {
	t.syscall(ep.m.cfg.Profile.EpollInstr)
	if maxEvents <= 0 {
		maxEvents = 64
	}
	// Typed wake-if-still-blocked timer; see UDPSocket.RecvFromTimeout for
	// the stale-record discipline.
	var deadline sim.Time
	if timeout > 0 {
		deadline = ep.m.eng.Now().Add(timeout)
		ep.m.eng.AfterEvent(timeout, sim.Event{Kind: sim.EvThreadWakeBlocked, Tgt: t})
	}
	blocked := false
	for {
		out := ep.evbuf[:0]
		// Harvest the ready list (level-triggered: items still ready are
		// re-queued).
		n := len(ep.ready) - ep.readyHead
		for i := 0; i < n && len(out) < maxEvents; i++ {
			it := ep.ready[ep.readyHead]
			ep.ready[ep.readyHead] = nil
			ep.readyHead++
			it.inReady = false
			if it.sock == nil {
				continue // deleted
			}
			mask := it.sock.readyMask() & it.interest
			if mask == 0 {
				continue
			}
			out = append(out, EpollEvent{Sock: it.sock, Events: mask, Data: it.data})
			// Still ready: keep it visible for the next Wait.
			it.inReady = true
			ep.ready = append(ep.ready, it)
		}
		if ep.readyHead == len(ep.ready) {
			ep.ready = ep.ready[:0]
			ep.readyHead = 0
		}
		ep.evbuf = out
		if len(out) > 0 {
			// Charge the per-event dispatch cost.
			t.Compute(int64(len(out)) * ep.m.cfg.Profile.EpollInstr / 4)
			return out
		}
		if ep.kicked {
			ep.kicked = false
			return nil
		}
		if timeout == 0 || (timeout > 0 && blocked && ep.m.eng.Now() >= deadline) {
			return nil
		}
		blocked = true
		ep.waiters.enqueue(t)
		t.block()
	}
}

// simDuration aliases sim.Duration for brevity in the epoll API.
type simDuration = sim.Duration

// WaitForever is the infinite epoll timeout.
const WaitForever simDuration = -1

// --- UDP ----------------------------------------------------------------------

// udpDgram is one reassembled datagram in a socket's receive queue.
type udpDgram struct {
	from    packet.Addr
	bytes   int
	payload any
}

type fragKey struct {
	from packet.Addr
	id   uint64
}

type fragState struct {
	got   int
	total int
}

// UDPStats counts socket-level events.
type UDPStats struct {
	TxDatagrams, RxDatagrams uint64
	RxDropsFull              uint64
}

// UDPSocket is a bound datagram socket.
type UDPSocket struct {
	m    *Machine
	port packet.Port

	// rcvq is a head-indexed FIFO (see Machine.kq): popping advances rcvqHead
	// and the backing array is reused, so a steady request/response flow
	// queues and drains datagrams without allocating.
	rcvq     []udpDgram
	rcvqHead int
	rcvBytes int

	frags map[fragKey]*fragState

	readers  waitQueue
	watchers []*Epoll
	closed   bool
	nextFrag uint64

	Stats UDPStats
}

// UDPSocket creates and binds a datagram socket. Port 0 picks an ephemeral
// port.
func (t *Thread) UDPSocket(port packet.Port) (*UDPSocket, error) {
	m := t.m
	t.syscall(0)
	if port == 0 {
		port = m.ephemeralPort()
	}
	if _, dup := m.udpSocks[port]; dup {
		return nil, fmt.Errorf("%w: udp %d", ErrPortInUse, port)
	}
	s := &UDPSocket{m: m, port: port, frags: make(map[fragKey]*fragState)}
	m.udpSocks[port] = s
	return s, nil
}

// Port returns the bound port.
func (s *UDPSocket) Port() packet.Port { return s.port }

// SendTo transmits one datagram of n bytes to dst. payload is the opaque
// application message surfaced at the receiver.
func (s *UDPSocket) SendTo(t *Thread, dst packet.Addr, n int, payload any) error {
	if s.closed {
		return ErrClosed
	}
	if n <= 0 || n > MaxDatagram {
		return ErrMsgTooLong
	}
	m := s.m
	t.syscall(m.cfg.Profile.TxUDPInstr)
	if !m.cfg.ZeroCopy {
		t.computeTime(m.copyCost(n))
	}
	s.Stats.TxDatagrams++
	s.nextFrag++
	id := s.nextFrag
	total := (n + packet.MaxUDPPayload - 1) / packet.MaxUDPPayload
	remaining := n
	for i := 0; i < total; i++ {
		chunk := remaining
		if chunk > packet.MaxUDPPayload {
			chunk = packet.MaxUDPPayload
		}
		remaining -= chunk
		pkt := m.newPacket()
		pkt.Src = packet.Addr{Node: m.node, Port: s.port}
		pkt.Dst = dst
		pkt.Proto = packet.ProtoUDP
		pkt.PayloadBytes = chunk
		// The fragment descriptor rides in the typed UDP header (boxing it
		// into Payload would allocate per packet); the application reference
		// is attached to the final fragment only.
		pkt.UDP = packet.UDPHdr{FragID: id, Index: uint16(i), Total: uint16(total), Bytes: n}
		if i == total-1 {
			pkt.Payload = payload
		}
		// Fragments beyond the first cost a reduced per-packet TX charge.
		if i > 0 {
			t.Compute(m.cfg.Profile.TxUDPInstr / 2)
		}
		m.transmit(pkt)
	}
	return nil
}

// RecvFrom blocks until a datagram arrives, then returns its source, size
// and payload.
func (s *UDPSocket) RecvFrom(t *Thread) (packet.Addr, int, any, error) {
	m := s.m
	t.syscall(m.cfg.Profile.RxUDPInstr / 4)
	for {
		if s.Pending() > 0 {
			d := s.popDgram()
			s.rcvBytes -= d.bytes
			t.computeTime(m.copyCost(d.bytes))
			return d.from, d.bytes, d.payload, nil
		}
		if s.closed {
			return packet.Addr{}, 0, nil, ErrClosed
		}
		s.readers.enqueue(t)
		t.block()
	}
}

// RecvFromTimeout is RecvFrom with a receive deadline (SO_RCVTIMEO): it
// returns ErrWouldBlock if no datagram arrives within d.
func (s *UDPSocket) RecvFromTimeout(t *Thread, d sim.Duration) (packet.Addr, int, any, error) {
	m := s.m
	t.syscall(m.cfg.Profile.RxUDPInstr / 4)
	// The timeout is a typed wake-if-still-blocked record plus a deadline
	// comparison (a capturing closure here costs one allocation per receive).
	// The record is not cancelled on early success; stale ones only ever wake
	// a blocked thread, which the loop absorbs as a spurious wakeup.
	var deadline sim.Time
	if d >= 0 {
		deadline = m.eng.Now().Add(d)
		m.eng.AfterEvent(d, sim.Event{Kind: sim.EvThreadWakeBlocked, Tgt: t})
	}
	blocked := false // the deadline can only have passed after one block/wake cycle
	for {
		if s.Pending() > 0 {
			dg := s.popDgram()
			s.rcvBytes -= dg.bytes
			t.computeTime(m.copyCost(dg.bytes))
			return dg.from, dg.bytes, dg.payload, nil
		}
		if s.closed {
			return packet.Addr{}, 0, nil, ErrClosed
		}
		if blocked && d >= 0 && m.eng.Now() >= deadline {
			return packet.Addr{}, 0, nil, ErrWouldBlock
		}
		blocked = true
		s.readers.enqueue(t)
		t.block()
	}
}

// TryRecv is the non-blocking variant (MSG_DONTWAIT), for epoll users.
func (s *UDPSocket) TryRecv(t *Thread) (packet.Addr, int, any, error) {
	m := s.m
	t.syscall(m.cfg.Profile.RxUDPInstr / 4)
	if s.Pending() == 0 {
		if s.closed {
			return packet.Addr{}, 0, nil, ErrClosed
		}
		return packet.Addr{}, 0, nil, ErrWouldBlock
	}
	d := s.popDgram()
	s.rcvBytes -= d.bytes
	t.computeTime(m.copyCost(d.bytes))
	return d.from, d.bytes, d.payload, nil
}

// popDgram removes the queue head. Callers must check Pending() first.
func (s *UDPSocket) popDgram() udpDgram {
	d := s.rcvq[s.rcvqHead]
	s.rcvq[s.rcvqHead] = udpDgram{}
	s.rcvqHead++
	if s.rcvqHead == len(s.rcvq) {
		s.rcvq = s.rcvq[:0]
		s.rcvqHead = 0
	}
	return d
}

// Pending returns the queued datagram count.
func (s *UDPSocket) Pending() int { return len(s.rcvq) - s.rcvqHead }

// Close unbinds the socket.
func (s *UDPSocket) Close(t *Thread) {
	if s.closed {
		return
	}
	t.syscall(0)
	s.closed = true
	delete(s.m.udpSocks, s.port)
	s.readers.wakeAll(s.m)
	s.notifyWatchers()
}

// deliverUDP runs in softirq context: reassemble and enqueue.
func (m *Machine) deliverUDP(pkt *packet.Packet) {
	s, ok := m.udpSocks[pkt.Dst.Port]
	if !ok || s.closed {
		return // ICMP port unreachable in real life; silently dropped here
	}
	hdr := pkt.UDP
	if hdr.Total == 0 {
		// Raw single-packet datagram (from tests or simple senders).
		hdr = packet.UDPHdr{Total: 1, Bytes: pkt.PayloadBytes}
	}
	if hdr.Total > 1 {
		key := fragKey{from: pkt.Src, id: hdr.FragID}
		st := s.frags[key]
		if st == nil {
			st = &fragState{total: int(hdr.Total)}
			s.frags[key] = st
		}
		st.got++
		if st.got < st.total {
			return // waiting for the rest (loss of any fragment loses all)
		}
		delete(s.frags, key)
	}
	if s.rcvBytes+hdr.Bytes > m.cfg.UDPRcvBuf {
		s.Stats.RxDropsFull++
		return
	}
	s.rcvq = append(s.rcvq, udpDgram{from: pkt.Src, bytes: hdr.Bytes, payload: pkt.Payload})
	s.rcvBytes += hdr.Bytes
	s.Stats.RxDatagrams++
	s.readers.wakeOne(m)
	s.notifyWatchers()
}

func (s *UDPSocket) readyMask() EpollEvents {
	var mask EpollEvents
	if s.Pending() > 0 {
		mask |= EpollIn
	}
	if !s.closed {
		mask |= EpollOut
	} else {
		mask |= EpollHup
	}
	return mask
}

func (s *UDPSocket) attach(ep *Epoll) { s.watchers = append(s.watchers, ep) }
func (s *UDPSocket) detach(ep *Epoll) { s.watchers = removeEpoll(s.watchers, ep) }
func (s *UDPSocket) notifyWatchers() {
	for _, ep := range s.watchers {
		ep.markReady(s)
	}
}

func removeEpoll(eps []*Epoll, ep *Epoll) []*Epoll {
	for i, e := range eps {
		if e == ep {
			return append(eps[:i], eps[i+1:]...)
		}
	}
	return eps
}

// --- TCP ----------------------------------------------------------------------

// TCPStats counts socket-level events.
type TCPStats struct {
	Accepted uint64
	Refused  uint64
}

// TCPListener accepts incoming connections on a port.
type TCPListener struct {
	m       *Machine
	port    packet.Port
	backlog int

	pending    []*TCPSocket // established, waiting for Accept
	synPending int

	acceptQ  waitQueue
	watchers []*Epoll
	closed   bool

	Stats TCPStats
}

// Listen binds a listening socket (socket+bind+listen).
func (t *Thread) Listen(port packet.Port, backlog int) (*TCPListener, error) {
	m := t.m
	t.syscall(0)
	if _, dup := m.listeners[port]; dup {
		return nil, fmt.Errorf("%w: tcp %d", ErrPortInUse, port)
	}
	if backlog <= 0 {
		backlog = 128
	}
	lis := &TCPListener{m: m, port: port, backlog: backlog}
	m.listeners[port] = lis
	return lis, nil
}

// Port returns the listening port.
func (lis *TCPListener) Port() packet.Port { return lis.port }

// incoming handles a SYN for this listener (softirq context).
func (lis *TCPListener) incoming(pkt *packet.Packet, key connKey) {
	m := lis.m
	if lis.closed || len(lis.pending)+lis.synPending >= lis.backlog {
		lis.Stats.Refused++
		return // SYN dropped; client retries (listen queue overflow)
	}
	local := packet.Addr{Node: m.node, Port: lis.port}
	remote := pkt.Src
	conn, err := tcp.NewServer(tcpEnv{m}, m.cfg.TCP, local, remote)
	if err != nil {
		lis.Stats.Refused++
		return
	}
	sock := newTCPSocket(m, conn, key)
	m.conns[key] = sock
	lis.synPending++
	conn.OnConnected = func() {
		lis.synPending--
		if lis.closed {
			sock.conn.Abort()
			return
		}
		lis.pending = append(lis.pending, sock)
		lis.acceptQ.wakeOne(m)
		lis.notifyWatchers()
	}
	conn.HandleSyn(pkt)
}

// Accept blocks until a connection is established and returns it. The
// accept4 variant (memcached >= 1.4.17) saves the extra fcntl syscall that
// Accept4=false charges (§4.2 "Impact of application implementation").
func (lis *TCPListener) Accept(t *Thread, accept4 bool) (*TCPSocket, error) {
	extra := lis.m.cfg.Profile.AcceptInstr
	if !accept4 {
		// accept() + separate fcntl(O_NONBLOCK) syscall.
		t.syscall(0)
	}
	t.syscall(extra)
	for {
		if len(lis.pending) > 0 {
			s := lis.pending[0]
			lis.pending = lis.pending[1:]
			lis.Stats.Accepted++
			return s, nil
		}
		if lis.closed {
			return nil, ErrClosed
		}
		lis.acceptQ.enqueue(t)
		t.block()
	}
}

// TryAccept is the non-blocking accept for epoll-driven servers.
func (lis *TCPListener) TryAccept(t *Thread, accept4 bool) (*TCPSocket, error) {
	extra := lis.m.cfg.Profile.AcceptInstr
	if !accept4 {
		t.syscall(0)
	}
	t.syscall(extra)
	if len(lis.pending) == 0 {
		if lis.closed {
			return nil, ErrClosed
		}
		return nil, ErrWouldBlock
	}
	s := lis.pending[0]
	lis.pending = lis.pending[1:]
	lis.Stats.Accepted++
	return s, nil
}

// Close stops accepting.
func (lis *TCPListener) Close(t *Thread) {
	if lis.closed {
		return
	}
	t.syscall(0)
	lis.closed = true
	delete(lis.m.listeners, lis.port)
	for _, s := range lis.pending {
		s.conn.Abort()
	}
	lis.pending = nil
	lis.acceptQ.wakeAll(lis.m)
	lis.notifyWatchers()
}

func (lis *TCPListener) readyMask() EpollEvents {
	var mask EpollEvents
	if len(lis.pending) > 0 {
		mask |= EpollIn
	}
	if lis.closed {
		mask |= EpollHup
	}
	return mask
}

func (lis *TCPListener) attach(ep *Epoll) { lis.watchers = append(lis.watchers, ep) }
func (lis *TCPListener) detach(ep *Epoll) { lis.watchers = removeEpoll(lis.watchers, ep) }
func (lis *TCPListener) notifyWatchers() {
	for _, ep := range lis.watchers {
		ep.markReady(lis)
	}
}

// TCPSocket is one connection endpoint with blocking and epoll interfaces.
type TCPSocket struct {
	m    *Machine
	conn *tcp.Conn
	key  connKey

	readers  waitQueue
	writers  waitQueue
	connectQ waitQueue
	watchers []*Epoll
	done     bool
	err      error
}

func newTCPSocket(m *Machine, conn *tcp.Conn, key connKey) *TCPSocket {
	s := &TCPSocket{m: m, conn: conn, key: key}
	conn.OnReadable = func() {
		s.readers.wakeOne(m)
		s.notifyWatchers()
	}
	conn.OnWritable = func() {
		s.writers.wakeOne(m)
		s.notifyWatchers()
	}
	conn.OnClosed = func(err error) {
		s.done = true
		s.err = err
		m.tcpClosed.accumulate(conn.Stats)
		delete(m.conns, s.key)
		s.readers.wakeAll(m)
		s.writers.wakeAll(m)
		s.connectQ.wakeAll(m)
		s.notifyWatchers()
	}
	return s
}

// Connect opens a connection to remote and blocks until it is established.
func (t *Thread) Connect(remote packet.Addr) (*TCPSocket, error) {
	m := t.m
	t.syscall(m.cfg.Profile.ConnectInstr)
	local := packet.Addr{Node: m.node, Port: m.ephemeralPort()}
	key := connKey{local: local.Port, remoteNode: remote.Node, remotePort: remote.Port}
	conn, err := tcp.NewClient(tcpEnv{m}, m.cfg.TCP, local, remote)
	if err != nil {
		return nil, err
	}
	s := newTCPSocket(m, conn, key)
	m.conns[key] = s
	connected := false
	conn.OnConnected = func() {
		connected = true
		s.connectQ.wakeAll(m)
		s.notifyWatchers()
	}
	conn.Open()
	for !connected && !s.done {
		s.connectQ.enqueue(t)
		t.block()
	}
	if s.done {
		return nil, fmt.Errorf("%w: %v", ErrConnRefused, s.err)
	}
	return s, nil
}

// Conn exposes the protocol endpoint (for stats inspection).
func (s *TCPSocket) Conn() *tcp.Conn { return s.conn }

// Remote returns the peer address.
func (s *TCPSocket) Remote() packet.Addr { return s.conn.Remote }

// Err returns the terminal error after the connection closed.
func (s *TCPSocket) Err() error { return s.err }

// Send writes an n-byte application message, blocking until the send buffer
// accepts all of it. payload surfaces at the receiver with the final byte.
func (s *TCPSocket) Send(t *Thread, n int, payload any) error {
	m := s.m
	t.syscall(0)
	remaining := n
	for remaining > 0 {
		if s.done {
			return s.errOrClosed()
		}
		accepted := s.conn.Send(remaining, payload)
		if accepted == 0 {
			s.writers.enqueue(t)
			t.block()
			continue
		}
		if !m.cfg.ZeroCopy {
			t.computeTime(m.copyCost(accepted))
		}
		remaining -= accepted
	}
	return nil
}

// Recv blocks until data (or EOF) is available and returns the bytes
// consumed and any completed application messages.
func (s *TCPSocket) Recv(t *Thread, max int) (int, []any, error) {
	m := s.m
	t.syscall(0)
	for {
		if n := s.conn.Readable(); n > 0 {
			got, msgs := s.conn.Read(max)
			t.computeTime(m.copyCost(got))
			return got, msgs, nil
		}
		if s.conn.EOF() {
			return 0, nil, nil // clean EOF: (0, nil, nil)
		}
		if s.done {
			return 0, nil, s.errOrClosed()
		}
		s.readers.enqueue(t)
		t.block()
	}
}

// TryRecv is the non-blocking read for epoll users. It returns ErrWouldBlock
// when nothing is available.
func (s *TCPSocket) TryRecv(t *Thread, max int) (int, []any, error) {
	m := s.m
	t.syscall(0)
	if n := s.conn.Readable(); n > 0 {
		got, msgs := s.conn.Read(max)
		t.computeTime(m.copyCost(got))
		return got, msgs, nil
	}
	if s.conn.EOF() {
		return 0, nil, nil
	}
	if s.done {
		return 0, nil, s.errOrClosed()
	}
	return 0, nil, ErrWouldBlock
}

// Close performs an orderly shutdown.
func (s *TCPSocket) Close(t *Thread) {
	t.syscall(0)
	s.conn.Close()
}

// Abort resets the connection.
func (s *TCPSocket) Abort(t *Thread) {
	t.syscall(0)
	s.conn.Abort()
}

func (s *TCPSocket) errOrClosed() error {
	if s.err != nil {
		return s.err
	}
	return ErrClosed
}

func (s *TCPSocket) readyMask() EpollEvents {
	var mask EpollEvents
	if s.conn.Readable() > 0 || s.conn.EOF() || s.done {
		mask |= EpollIn
	}
	if !s.done && s.conn.State() == tcp.StateEstablished && s.conn.Writable() > 0 {
		mask |= EpollOut
	}
	if s.done {
		mask |= EpollHup
	}
	return mask
}

func (s *TCPSocket) attach(ep *Epoll) { s.watchers = append(s.watchers, ep) }
func (s *TCPSocket) detach(ep *Epoll) { s.watchers = removeEpoll(s.watchers, ep) }
func (s *TCPSocket) notifyWatchers() {
	for _, ep := range s.watchers {
		ep.markReady(s)
	}
}
