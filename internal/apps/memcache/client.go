package memcache

import (
	"slices"

	"diablo/internal/kernel"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/workload"
)

// Proto selects the client transport (§4.2 compares both at scale).
type Proto uint8

// Transports.
const (
	UDP Proto = iota
	TCP
)

func (p Proto) String() string {
	if p == UDP {
		return "udp"
	}
	return "tcp"
}

// Sample is one completed request observation.
type Sample struct {
	Server  packet.NodeID
	Op      workload.Op
	Latency sim.Duration
	Retried bool
}

// ClientParams configures one closed-loop client thread.
type ClientParams struct {
	// Servers are the memcached instances to load (requests pick one
	// uniformly at random, as in §4.2).
	Servers []packet.Addr
	// Proto selects UDP or TCP.
	Proto Proto
	// Requests is the total request count (paper: 30K per client).
	Requests int
	// Workload drives key/value/op/think-time generation.
	Workload workload.ETCParams
	// PerRequestInstr is the client-side request construction cost.
	PerRequestInstr int64
	// UDPTimeout is the retry timeout for lost datagrams; Retries bounds
	// attempts per request.
	UDPTimeout sim.Duration
	Retries    int
	// StartSpread staggers client start times uniformly over this window,
	// as real fleet deployments are never phase-locked; without it every
	// client's initial-window burst collides at t=0.
	StartSpread sim.Duration
	// ChurnEvery closes and reopens TCP connections every N requests
	// (0 = persistent connections). Connection churn is what makes the
	// accept4 difference between memcached versions visible (§4.2).
	ChurnEvery int
	// OnSample is invoked for every completed request.
	OnSample func(Sample)
	// OnDone is invoked after the last request completes.
	OnDone func()
}

// DefaultClient returns §4.2-style client parameters.
func DefaultClient(servers []packet.Addr, requests int) ClientParams {
	return ClientParams{
		Servers:         servers,
		Proto:           UDP,
		Requests:        requests,
		Workload:        workload.ETC(),
		PerRequestInstr: 5_000,
		UDPTimeout:      250 * sim.Millisecond,
		Retries:         3,
		StartSpread:     200 * sim.Millisecond,
	}
}

// InstallClient spawns the client thread on m.
func InstallClient(m *kernel.Machine, p ClientParams) {
	if p.Proto == UDP {
		m.Spawn("mc-client-udp", func(t *kernel.Thread) { runUDPClient(t, p) })
	} else {
		m.Spawn("mc-client-tcp", func(t *kernel.Thread) { runTCPClient(t, p) })
	}
}

func runUDPClient(t *kernel.Thread, p ClientParams) {
	gen, err := workload.NewGenerator(p.Workload, t.Rand().Fork("mc-client"))
	if err != nil {
		return
	}
	sock, err := t.UDPSocket(0)
	if err != nil {
		return
	}
	defer func() {
		if p.OnDone != nil {
			p.OnDone()
		}
	}()
	rng := t.Rand().Fork("mc-pick")
	if p.StartSpread > 0 {
		t.Sleep(sim.Duration(rng.Intn(int(p.StartSpread))))
	}
	var seq uint64
	for i := 0; i < p.Requests; i++ {
		if think := gen.Think(); think > 0 {
			t.Sleep(think)
		}
		server := p.Servers[rng.Intn(len(p.Servers))]
		r := gen.Next()
		seq++
		req := Request{Op: r.Op, Key: r.Key, ValueBytes: r.ValueBytes, Seq: seq}
		t.Compute(p.PerRequestInstr)

		start := t.Now()
		retried := false
		ok := false
		for attempt := 0; attempt <= p.Retries && !ok; attempt++ {
			if attempt > 0 {
				retried = true
			}
			if err := sock.SendTo(t, server, req.wireBytes(r.KeyBytes), req); err != nil {
				break
			}
			deadline := t.Now().Add(p.UDPTimeout)
			for {
				remain := deadline.Sub(t.Now())
				if remain <= 0 {
					break // timeout: retry
				}
				_, _, payload, err := sock.RecvFromTimeout(t, remain)
				if err != nil {
					break // timeout
				}
				resp, isResp := payload.(Response)
				if !isResp || resp.Seq != seq {
					continue // stale response from an earlier retry
				}
				ok = true
				break
			}
		}
		if ok && p.OnSample != nil {
			p.OnSample(Sample{Server: server.Node, Op: r.Op, Latency: t.Now().Sub(start), Retried: retried})
		}
	}
}

func runTCPClient(t *kernel.Thread, p ClientParams) {
	gen, err := workload.NewGenerator(p.Workload, t.Rand().Fork("mc-client"))
	if err != nil {
		return
	}
	defer func() {
		if p.OnDone != nil {
			p.OnDone()
		}
	}()
	rng := t.Rand().Fork("mc-pick")
	if p.StartSpread > 0 {
		t.Sleep(sim.Duration(rng.Intn(int(p.StartSpread))))
	}
	conns := make(map[packet.NodeID]*kernel.TCPSocket)
	reqsOnConn := make(map[packet.NodeID]int)
	var seq uint64

	getConn := func(server packet.Addr) *kernel.TCPSocket {
		if c, ok := conns[server.Node]; ok {
			return c
		}
		c, err := t.Connect(server)
		if err != nil {
			return nil
		}
		conns[server.Node] = c
		reqsOnConn[server.Node] = 0
		return c
	}

	for i := 0; i < p.Requests; i++ {
		if think := gen.Think(); think > 0 {
			t.Sleep(think)
		}
		server := p.Servers[rng.Intn(len(p.Servers))]
		conn := getConn(server)
		if conn == nil {
			continue
		}
		r := gen.Next()
		seq++
		req := Request{Op: r.Op, Key: r.Key, ValueBytes: r.ValueBytes, Seq: seq}
		t.Compute(p.PerRequestInstr)

		start := t.Now()
		if err := conn.Send(t, req.wireBytes(r.KeyBytes), req); err != nil {
			delete(conns, server.Node)
			continue
		}
		got := false
		for !got {
			n, msgs, err := conn.Recv(t, 1<<20)
			if err != nil || (n == 0 && len(msgs) == 0) {
				delete(conns, server.Node)
				break
			}
			for _, m := range msgs {
				if resp, ok := m.(Response); ok && resp.Seq == seq {
					got = true
				}
			}
		}
		if got && p.OnSample != nil {
			p.OnSample(Sample{Server: server.Node, Op: r.Op, Latency: t.Now().Sub(start)})
		}

		// Connection churn: periodically cycle the connection so the accept
		// path is exercised at a realistic rate.
		if p.ChurnEvery > 0 {
			reqsOnConn[server.Node]++
			if reqsOnConn[server.Node] >= p.ChurnEvery {
				conn.Close(t)
				delete(conns, server.Node)
				delete(reqsOnConn, server.Node)
			}
		}
	}
	// Close in server-node order: each Close sends a FIN, so ranging over the
	// map would make the run depend on Go's randomized map order.
	nodes := make([]packet.NodeID, 0, len(conns))
	for n := range conns {
		nodes = append(nodes, n) //simlint:allow detlint keys are sorted immediately below
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		conns[n].Close(t)
	}
}
