package fault

import (
	"fmt"

	"diablo/internal/link"
	"diablo/internal/sim"
	"diablo/internal/vswitch"
)

// Staller is a device whose DMA/interrupt engines can be frozen (nic.NIC).
type Staller interface {
	SetStalled(stalled bool)
}

// Slower is a compute element whose CPU costs can be stretched
// (kernel.Machine).
type Slower interface {
	SetSlowdown(f float64)
}

// BoundLink is one simplex link resolved from a Target, paired with the
// scheduler of the partition that owns its transmit side and a stable label
// used to derive its loss stream and to name it in traces.
type BoundLink struct {
	Link  *link.Link
	Sched sim.Scheduler
	Label string
}

// BoundSwitch is a switch resolved from a Target with its owning scheduler.
type BoundSwitch struct {
	Switch *vswitch.Switch
	Sched  sim.Scheduler
	Label  string
}

// Binder resolves declarative Targets to live components and the schedulers
// of the partitions that own them. core.Cluster implements it; tests supply
// small fakes. Every fault edge is scheduled on the owner's scheduler, so in
// a partitioned run the mutation is an ordinary local event — never a
// cross-partition send — and the engine's lookahead quantum is respected by
// construction.
type Binder interface {
	// Links resolves a link-scoped target (rack uplink or node edge,
	// restricted by Dir) to the affected simplex links.
	Links(t Target) ([]BoundLink, error)
	// Switch resolves a switch tier and index.
	Switch(level Level, index int) (BoundSwitch, error)
	// NICOf resolves a server's NIC.
	NICOf(node int) (Staller, sim.Scheduler, error)
	// MachineOf resolves a server's kernel machine.
	MachineOf(node int) (Slower, sim.Scheduler, error)
}

// Notify observes fault edges as they fire. The timestamp is the scheduled
// edge time. In a partitioned run edges fire on worker goroutines, so the
// callback must be safe for concurrent use (core serializes with a mutex).
type Notify func(at sim.Time, label, detail string)

// Install validates plan, resolves every action through binder, seeds the
// per-component loss streams from plan.Seed, and schedules all apply/clear
// edges. It must be called after the cluster is wired but before the run
// starts: stream installation (SetFaultRand) happens here, single-threaded,
// so the only mutations during the run are the scheduled edges themselves.
// An action with Dur == 0 applies and never clears.
func Install(plan *Plan, b Binder, notify Notify) error {
	if plan.Empty() {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	note := notify
	if note == nil {
		note = func(sim.Time, string, string) {}
	}
	// Loss streams are seeded per component label (not per action), so two
	// windows hitting the same link share one stream and the draw sequence
	// depends only on the frames that traverse it while impaired.
	linkStreams := make(map[string]bool)
	switchStreams := make(map[string]bool)

	for i, a := range plan.Actions {
		a := a
		label := a.Label()
		switch a.Kind {
		case LinkFlap, LinkDegrade:
			bound, err := b.Links(a.Target)
			if err != nil {
				return fmt.Errorf("fault: action %d (%s): %w", i, label, err)
			}
			for _, bl := range bound {
				bl := bl
				if a.Loss > 0 && !linkStreams[bl.Label] {
					bl.Link.SetFaultRand(sim.NewRand(sim.DeriveSeed(plan.Seed, "fault/link/"+bl.Label)))
					linkStreams[bl.Label] = true
				}
				imp := link.Impairment{Down: a.Kind == LinkFlap, Loss: a.Loss, ExtraProp: a.ExtraLatency}
				schedule(bl.Sched, a, note, bl.Label,
					func() { bl.Link.SetImpairment(imp) },
					func() { bl.Link.ClearImpairment() })
			}
		case SwitchOutage, PortDegrade:
			bs, err := b.Switch(a.Target.Level, a.Target.Index)
			if err != nil {
				return fmt.Errorf("fault: action %d (%s): %w", i, label, err)
			}
			if a.Kind == SwitchOutage {
				schedule(bs.Sched, a, note, bs.Label,
					func() { bs.Switch.SetFailed(true) },
					func() { bs.Switch.SetFailed(false) })
				break
			}
			if a.Target.Port >= bs.Switch.Params().Ports {
				return fmt.Errorf("fault: action %d (%s): port %d out of range on %s", i, label, a.Target.Port, bs.Label)
			}
			if !switchStreams[bs.Label] {
				bs.Switch.SetFaultRand(sim.NewRand(sim.DeriveSeed(plan.Seed, "fault/switch/"+bs.Label)))
				switchStreams[bs.Label] = true
			}
			port := a.Target.Port
			imp := vswitch.PortImpairment{Drop: a.Loss, Corrupt: a.Corrupt}
			schedule(bs.Sched, a, note, fmt.Sprintf("%s/in%d", bs.Label, port),
				func() { bs.Switch.SetPortImpairment(port, imp) },
				func() { bs.Switch.SetPortImpairment(port, vswitch.PortImpairment{}) })
		case NICStall:
			dev, sched, err := b.NICOf(a.Target.Node)
			if err != nil {
				return fmt.Errorf("fault: action %d (%s): %w", i, label, err)
			}
			schedule(sched, a, note, fmt.Sprintf("nic-%d", a.Target.Node),
				func() { dev.SetStalled(true) },
				func() { dev.SetStalled(false) })
		case Straggle:
			m, sched, err := b.MachineOf(a.Target.Node)
			if err != nil {
				return fmt.Errorf("fault: action %d (%s): %w", i, label, err)
			}
			factor := a.Slowdown
			schedule(sched, a, note, fmt.Sprintf("node-%d", a.Target.Node),
				func() { m.SetSlowdown(factor) },
				func() { m.SetSlowdown(1) })
		}
	}
	return nil
}

// schedule places the apply edge (and, for bounded windows, the clear edge)
// on the owner's scheduler.
func schedule(sched sim.Scheduler, a Action, note Notify, where string, apply, clear func()) {
	kind := a.Kind
	sched.At(a.At, func() {
		apply()
		note(a.At, where, fmt.Sprintf("%v apply", kind))
	})
	if a.Dur > 0 {
		end := a.At.Add(a.Dur)
		sched.At(end, func() {
			clear()
			note(end, where, fmt.Sprintf("%v clear", kind))
		})
	}
}
