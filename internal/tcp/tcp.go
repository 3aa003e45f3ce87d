// Package tcp implements a from-scratch TCP suitable for DIABLO's
// experiments: 3-way handshake, MSS segmentation, sliding windows, Reno/
// NewReno congestion control (slow start, congestion avoidance, fast
// retransmit and recovery), delayed ACKs, Jacobson RTT estimation, and an
// RTO with the configurable 200 ms Linux minimum that drives the TCP Incast
// throughput collapse (§4.1, [60]).
//
// The package is host-agnostic: a Conn talks to its kernel through the Env
// interface (timers + segment output), so the protocol logic is unit-testable
// over a loopback harness and the simulated kernel charges CPU costs around
// it.
//
// Byte streams are modeled without materializing payload bytes: senders
// enqueue (length, message) pairs, segments carry the message boundaries
// they cover, and receivers surface messages once the in-order byte stream
// passes each boundary — exactly the framing a real application would
// reconstruct by parsing.
package tcp

import (
	"fmt"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Env is the host environment a connection runs in. All methods are invoked
// from the simulation event context.
type Env interface {
	// Now returns the current simulated time.
	Now() sim.Time
	// At schedules a timer callback.
	At(t sim.Time, fn func()) sim.EventID
	// Cancel cancels a timer.
	Cancel(id sim.EventID)
	// Output transmits a fully-formed segment (the host fills in the route
	// and charges TX processing costs).
	Output(pkt *packet.Packet)
	// NewPacket allocates the segment Output will carry, from the host's
	// packet pool when it has one. Ownership transfers back to the host at
	// Output; the connection never retains a segment it emitted.
	NewPacket() *packet.Packet
}

// Config holds the tunables of the simulated stack.
type Config struct {
	MSS      int // maximum segment payload (default packet.MSS)
	SndBuf   int // send buffer bytes
	RcvBuf   int // receive buffer bytes (advertised window ceiling)
	InitCwnd int // initial congestion window in segments (IW10 per RFC 6928)

	MinRTO sim.Duration // the Incast knob: Linux's 200 ms default
	MaxRTO sim.Duration

	DelAckTimeout sim.Duration // delayed-ACK timer (Linux: ~40 ms)
	DelAckSegs    int          // ACK every n-th full segment (2)
}

// DefaultConfig returns Linux-like defaults.
func DefaultConfig() Config {
	return Config{
		MSS:           packet.MSS,
		SndBuf:        128 * 1024,
		RcvBuf:        85 * 1024, // Linux tcp_rmem default (87380)
		InitCwnd:      10,
		MinRTO:        200 * sim.Millisecond,
		MaxRTO:        120 * sim.Second,
		DelAckTimeout: 40 * sim.Millisecond,
		DelAckSegs:    2,
	}
}

// Validate checks and normalizes the configuration.
func (c *Config) Validate() error {
	if c.MSS <= 0 || c.MSS > packet.MSS {
		return fmt.Errorf("tcp: MSS %d out of range (0,%d]", c.MSS, packet.MSS)
	}
	if c.SndBuf < c.MSS || c.RcvBuf < c.MSS {
		return fmt.Errorf("tcp: buffers must hold at least one segment")
	}
	if c.InitCwnd <= 0 {
		return fmt.Errorf("tcp: InitCwnd must be positive")
	}
	if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
		return fmt.Errorf("tcp: bad RTO bounds [%v,%v]", c.MinRTO, c.MaxRTO)
	}
	if c.DelAckSegs <= 0 {
		c.DelAckSegs = 2
	}
	if c.DelAckTimeout <= 0 {
		c.DelAckTimeout = 40 * sim.Millisecond
	}
	return nil
}

// State is the connection state, a condensed TCP state machine.
type State uint8

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait   // we sent FIN, not yet acked or peer not done
	StateCloseWait // peer sent FIN, we have not closed yet
	StateLastAck   // peer closed, we sent FIN, awaiting ack
	StateTimeWait
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateCloseWait:
		return "close-wait"
	case StateLastAck:
		return "last-ack"
	case StateTimeWait:
		return "time-wait"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Boundary marks the end of an application message within the stream:
// the message Payload is complete when the receiver's in-order stream
// reaches EndSeq.
type Boundary struct {
	EndSeq  uint32
	Payload any
}

// Stats counts per-connection protocol events.
type Stats struct {
	SegsOut, SegsIn   uint64
	BytesOut, BytesIn uint64
	Retransmits       uint64
	FastRetransmits   uint64
	Timeouts          uint64
	DupAcksIn         uint64
}

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
