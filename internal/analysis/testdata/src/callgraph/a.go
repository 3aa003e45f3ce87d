// Package fixture is the synthetic package for call-graph unit tests: each
// declaration exercises one edge-resolution rule (direct call, method call,
// method value, interface dispatch, func-value call). The graph tests assert
// edges and flags directly; no analyzer runs here, so no want comments.
package fixture

import "diablo/internal/sim"

// Node is the owned struct: bump records its counter write.
type Node struct {
	sched   sim.Scheduler
	counter int
}

// Top -> middle -> (*Node).bump is the direct-call chain.
func Top(n *Node) { middle(n) }

func middle(n *Node) { n.bump() }

func (n *Node) bump() { n.counter++ }

// TakesValue binds a method value without calling it: the method may run
// later in whatever context took the value, so the edge still exists.
func TakesValue(n *Node) func() {
	f := n.bump
	return f
}

// stepper is the in-package interface; two concrete types implement it.
type stepper interface{ step() }

type stepA struct{ n *Node }

func (s *stepA) step() { s.n.bump() }

type stepB struct{}

func (stepB) step() {}

// Dispatch calls through the interface: conservative edges to both
// implementations, plus the Unknown flag (an out-of-package implementation
// may exist).
func Dispatch(s stepper) { s.step() }

// CallsFuncValue invokes a plain func value: no edge, Unknown set.
func CallsFuncValue(f func()) { f() }

// Isolated has no callees and is called by nobody.
func Isolated() {}
