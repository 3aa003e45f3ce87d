package analysis

import "testing"

// loadCallGraph loads the synthetic fixture and builds its graph once per
// test (the loader itself is shared).
func loadCallGraph(t *testing.T) *CallGraph {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/callgraph", "diablo/internal/link/cgfixture")
	if err != nil {
		t.Fatal(err)
	}
	return pkg.CallGraph()
}

func calleeNames(n *FuncNode) map[string]bool {
	out := make(map[string]bool)
	for _, c := range n.Callees {
		out[funcLabel(c.Fn)] = true
	}
	return out
}

func TestCallGraphDirectCalls(t *testing.T) {
	g := loadCallGraph(t)
	top := g.NodeByName("Top")
	if top == nil {
		t.Fatal("no node for Top")
	}
	if !calleeNames(top)["middle"] {
		t.Errorf("Top callees = %v, want middle", calleeNames(top))
	}
	if top.Unknown {
		t.Error("Top marked Unknown; all its calls resolve in-package")
	}
	mid := g.NodeByName("middle")
	if !calleeNames(mid)["Node.bump"] {
		t.Errorf("middle callees = %v, want Node.bump", calleeNames(mid))
	}
}

func TestCallGraphMethodValue(t *testing.T) {
	g := loadCallGraph(t)
	tv := g.NodeByName("TakesValue")
	if !calleeNames(tv)["Node.bump"] {
		t.Errorf("TakesValue callees = %v, want Node.bump (method value binds an edge)", calleeNames(tv))
	}
}

func TestCallGraphInterfaceDispatchIsConservative(t *testing.T) {
	g := loadCallGraph(t)
	d := g.NodeByName("Dispatch")
	names := calleeNames(d)
	if !names["stepA.step"] || !names["stepB.step"] {
		t.Errorf("Dispatch callees = %v, want both in-package step implementations", names)
	}
	if !d.Unknown {
		t.Error("Dispatch not marked Unknown: interface dispatch must keep the conservative bit")
	}
}

func TestCallGraphFuncValueIsUnknown(t *testing.T) {
	g := loadCallGraph(t)
	n := g.NodeByName("CallsFuncValue")
	if len(n.Callees) != 0 {
		t.Errorf("CallsFuncValue callees = %v, want none", calleeNames(n))
	}
	if !n.Unknown {
		t.Error("CallsFuncValue not marked Unknown")
	}
}

func TestCallGraphReachable(t *testing.T) {
	g := loadCallGraph(t)
	top := g.NodeByName("Top")
	reach := g.Reachable([]*FuncNode{top})
	for _, name := range []string{"Top", "middle", "Node.bump"} {
		if _, ok := reach[g.NodeByName(name)]; !ok {
			t.Errorf("%s not reachable from Top", name)
		}
	}
	if _, ok := reach[g.NodeByName("Isolated")]; ok {
		t.Error("Isolated reachable from Top")
	}
	if pred := reach[g.NodeByName("middle")]; pred == nil || funcLabel(pred.Fn) != "Top" {
		t.Errorf("middle's recorded predecessor = %v, want Top", pred)
	}
}

// TestCallGraphOwnedStructs pins owned-struct discovery (a struct with a
// sim.Scheduler field, rooted at its first one) and that writes to an owned
// struct's fields land in the writing function's summary.
func TestCallGraphOwnedStructs(t *testing.T) {
	g := loadCallGraph(t)
	if len(g.owned) != 1 {
		t.Fatalf("owned structs = %v, want exactly Node", g.owned)
	}
	for n, o := range g.owned {
		if n.Obj().Name() != "Node" || o.root == nil || o.root.Name() != "sched" {
			t.Errorf("owned %v with root %v, want Node rooted at sched", n, o.root)
		}
	}
	writes := g.NodeByName("Node.bump").Writes
	if len(writes) != 1 || writes[0].Owner.Obj().Name() != "Node" || writes[0].Field.Name() != "counter" {
		t.Errorf("Node.bump writes = %v, want the Node.counter write", writes)
	}
	if len(g.NodeByName("middle").Writes) != 0 {
		t.Error("middle records a write it only reaches through a call")
	}
}
