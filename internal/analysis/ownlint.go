package analysis

// Ownlint enforces the partition-confinement contract: every owned struct (a
// struct with a sim.Scheduler field) belongs to the partition whose scheduler
// it was wired with, and event-time code must touch only state it owns. Crosslint polices the syntactic surface
// (naming cross-partition machinery, mixed schedulers inside one closure);
// ownlint uses the package call graph to police the interprocedural surface:
// a typed handler that calls a helper that calls a setter writing another
// object's state is the same leak with two stack frames in between.
//
// The ownership model (DESIGN.md §5.10):
//
//   - An owned struct's first sim.Scheduler field is its ownership root; any
//     scheduler field of the *same* struct is a sanctioned lane (link keeps
//     a second delivery-side lane that core wires to a Cross scheduler).
//   - Methods run in one ownership context. State reached through the
//     receiver — including owned children reached by composition — is that
//     context: composition implies co-location, which the wiring layer
//     guarantees. A function with no owned receiver may adopt the context of
//     one owned object handed to it (obs.Registry.tick reschedules an
//     instrument wholly inside the instrument's own partition).
//   - What event-reachable code must not do is *mix* contexts: write fields,
//     schedule through the root, or aim a typed event at a second owned
//     object once a context is established, or touch package-level owned
//     state at all. Cross-partition traffic goes through the Cross scheduler
//     or SendEvent, wired by core.
//
// "Event-reachable" is computed on the call graph: entry points are the
// exported functions and methods of the package (anything a handler in any
// package may call at event time) minus constructors, plus any declaration
// that registers or schedules a function literal. Unexported helpers only
// inherit event context through call edges — a wiring-only helper called
// from constructors alone is exempt, which is exactly the interprocedural
// distinction the per-function analyzers could not make.
//
// Deliberate violations carry //simlint:allow ownlint <reason>.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Ownlint is the interprocedural ownership analyzer.
var Ownlint = &Analyzer{
	Name: "ownlint",
	Doc: "event-reachable model code must stay in one ownership context: no " +
		"writes, root scheduling, or typed-event targeting of a second " +
		"partition's object; cross-partition traffic goes through Cross/SendEvent",
	Run: runOwnlint,
}

func runOwnlint(pass *Pass) error {
	if !IsStrictModelPackage(pass.Pkg.Path()) {
		return nil
	}
	pkg := &Package{Path: pass.Pkg.Path(), Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.Info}
	g := passCallGraph(pass, pkg)
	if len(g.owned) == 0 {
		return nil
	}

	entries := ownlintEntries(g)
	reach := g.Reachable(entries)

	for _, node := range g.Sorted {
		pred, reachable := reach[node]
		if !reachable {
			continue
		}
		via := ""
		if pred != nil {
			via = " (event-reachable via " + funcLabel(pred.Fn) + ")"
		}
		checkNodeOwnership(pass, g, node, via)
	}
	return nil
}

// ownSite is one ownership-relevant access inside a function body, in a form
// the mixing rule can walk uniformly: a field write, a scheduling call
// through an owned root, or a typed event aimed at an owned object.
type ownSite struct {
	kind  string // "write", "sched", "target"
	base  BaseClass
	obj   types.Object // chain-root object for parameters and globals
	owner *types.Named // the owned struct reached
	// write details
	field *types.Var
	// sched details
	method string
	pos    token.Pos
}

// checkNodeOwnership applies the single-context rule to one event-reachable
// function. The context starts as the owned receiver (if any); a function
// without one may adopt the first parameter-rooted owned object it touches.
// Any later site rooted at a *different* object mixes partitions and is
// reported; package-level owned state is foreign in every context.
func checkNodeOwnership(pass *Pass, g *CallGraph, node *FuncNode, via string) {
	sites := collectOwnSites(node)
	if len(sites) == 0 {
		return
	}
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })

	var adopted types.Object // parameter root this body operates in
	recvOwned := ownedReceiver(g, node)

	for _, s := range sites {
		if pass.InTestFile(s.pos) {
			continue
		}
		switch s.base {
		case BaseRecv, BaseEventTarget, BaseFresh, BaseSchedParam, BaseUnknown:
			// Receiver chains are the method's own context (composition
			// implies co-location); dispatch targets are the partition the
			// event fired on; fresh values are unowned; a scheduler-typed
			// parameter is caller-chosen context; unknown stays silent.
			continue
		case BaseGlobal:
			reportOwnSite(pass, s, "package-level", via)
			continue
		case BaseParam:
			if s.obj == nil {
				continue // lost the root; stay precise rather than noisy
			}
			if s.obj == adopted {
				continue
			}
			if adopted == nil && !recvOwned {
				// First owned object this ownerless body touches: adopt its
				// context (the operate-on-the-passed-object idiom).
				adopted = s.obj
				continue
			}
			reportOwnSite(pass, s, "a second", via)
		}
	}
}

// collectOwnSites flattens a node's summaries into the uniform site list.
func collectOwnSites(node *FuncNode) []ownSite {
	var sites []ownSite
	for i := range node.Writes {
		w := &node.Writes[i]
		sites = append(sites, ownSite{
			kind: "write", base: w.Base, obj: w.BaseObj,
			owner: w.Owner, field: w.Field, pos: w.Pos,
		})
	}
	for i := range node.SchedSites {
		s := &node.SchedSites[i]
		if s.OwnedRoot != nil {
			sites = append(sites, ownSite{
				kind: "sched", base: s.Base, obj: s.BaseObj,
				owner: s.OwnedRoot, method: s.Method, pos: s.Pos,
			})
		}
		if TypedSchedMethod(s.Method) && s.TgtOwned != nil {
			sites = append(sites, ownSite{
				kind: "target", base: s.TgtBase, obj: s.TgtBaseObj,
				owner: s.TgtOwned, method: s.Method, pos: s.Pos,
			})
		}
	}
	return sites
}

// reportOwnSite renders one mixing violation. rootKind is "package-level" or
// "a second" — how the foreign object entered the body.
func reportOwnSite(pass *Pass, s ownSite, rootKind, via string) {
	root := rootKind + " partition's object"
	if s.obj != nil {
		root += " (" + s.base.String() + " " + s.obj.Name() + ")"
	}
	switch s.kind {
	case "write":
		pass.Reportf(s.pos,
			"write to %s.%s through %s%s: cross-partition writes must go "+
				"through the Cross scheduler or SendEvent",
			s.owner.Obj().Name(), s.field.Name(), root, via)
	case "sched":
		pass.Reportf(s.pos,
			"%s call through %s's scheduler root, reached via %s%s: scheduling "+
				"on another partition bypasses the quantum barrier; use the Cross "+
				"scheduler wired by core",
			s.method, s.owner.Obj().Name(), root, via)
	case "target":
		pass.Reportf(s.pos,
			"typed event (%s) targets %s, %s%s: its handler would mutate foreign "+
				"state; deliver via SendEvent or a Cross scheduler",
			s.method, s.owner.Obj().Name(), root, via)
	}
}

// ownedReceiver reports whether node is a method whose receiver type is an
// owned struct of this package.
func ownedReceiver(g *CallGraph, node *FuncNode) bool {
	sig := node.Fn.Type().(*types.Signature)
	r := sig.Recv()
	return r != nil && g.ownedNamed(r.Type()) != nil
}

// ownlintEntries collects the event-context entry points.
func ownlintEntries(g *CallGraph) []*FuncNode {
	var entries []*FuncNode
	for _, node := range g.Sorted {
		if ast.IsExported(node.Fn.Name()) && !isConstructor(g, node) {
			entries = append(entries, node)
			continue
		}
		if registersOrSchedulesLiteral(g, node) {
			entries = append(entries, node)
		}
	}
	return entries
}

// isConstructor reports whether node is a package function (no receiver)
// returning an owned struct — the New* shape that builds and wires objects
// before any event runs.
func isConstructor(g *CallGraph, node *FuncNode) bool {
	sig := node.Fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if g.ownedNamed(sig.Results().At(i).Type()) != nil {
			return true
		}
	}
	return false
}

// registersOrSchedulesLiteral reports whether node passes a function literal
// to RegisterHandler or to a scheduling method — the literal body runs later
// in event context, so the declaration is an entry even if unexported.
func registersOrSchedulesLiteral(g *CallGraph, node *FuncNode) bool {
	found := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name, ok := simMethod(g.pkg.Info, sel)
		if !ok || (name != "RegisterHandler" && !schedMethods[name]) {
			return true
		}
		for _, arg := range call.Args {
			if _, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				found = true
			}
		}
		return true
	})
	return found
}

// passCallGraph returns the call graph for the pass's package, reusing the
// loader-cached graph when the pass was built from a loaded *Package (the
// normal path through Run) and building a fresh one otherwise.
func passCallGraph(pass *Pass, fallback *Package) *CallGraph {
	if pass.pkg != nil {
		return pass.pkg.CallGraph()
	}
	return fallback.CallGraph()
}
