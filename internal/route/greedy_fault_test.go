package route

import (
	"math/rand"
	"reflect"
	"testing"

	"meshpram/internal/fault"
	"meshpram/internal/mesh"
)

// cloneItems deep-copies a per-processor item scatter so the same
// workload can be routed twice.
func cloneItems(items [][]item) [][]item {
	out := make([][]item, len(items))
	for p := range items {
		out[p] = append([]item(nil), items[p]...)
	}
	return out
}

// TestFaultRouterEmptyMapIdentity pins the rate-0 guarantee at the
// router level: with a non-nil empty fault map, the fault-aware router
// must make bit-identical decisions to the healthy one — same
// delivered multisets per processor (in order) and the same cycle
// count, on both the mesh and the torus.
func TestFaultRouterEmptyMapIdentity(t *testing.T) {
	m1, m2 := mesh.MustNew(6), mesh.MustNew(6)
	m2.SetFaults(fault.NewMap(6))
	rng := rand.New(rand.NewSource(5))
	for _, r := range []mesh.Region{m1.Full(), {R0: 1, C0: 1, H: 4, W: 3}} {
		for trial := 0; trial < 8; trial++ {
			items := scatterItems(m1, r, 60, rng)
			healthy, hSteps, _ := NewEngine[item](m1).Route(nil, r, cloneItems(items), func(v item) int { return v.dest }, false, nil)
			faulty, fSteps, lost := NewEngine[item](m2).Route(nil, r, cloneItems(items), func(v item) int { return v.dest }, false, m2.Faults())
			if lost != 0 {
				t.Fatalf("region %v: empty map lost %d packets", r, lost)
			}
			if hSteps != fSteps {
				t.Fatalf("region %v: healthy %d cycles, fault path %d", r, hSteps, fSteps)
			}
			if !reflect.DeepEqual(healthy, faulty) {
				t.Fatalf("region %v: delivery order diverged on empty fault map", r)
			}
		}
	}
	// Torus flavor.
	items := scatterItems(m1, m1.Full(), 80, rng)
	healthy, hSteps, _ := NewEngine[item](m1).Route(nil, m1.Full(), cloneItems(items), func(v item) int { return v.dest }, true, nil)
	faulty, fSteps, lost := NewEngine[item](m2).Route(nil, m2.Full(), cloneItems(items), func(v item) int { return v.dest }, true, m2.Faults())
	if lost != 0 || hSteps != fSteps || !reflect.DeepEqual(healthy, faulty) {
		t.Fatalf("torus: empty-map identity broken (lost=%d, %d vs %d cycles)", lost, hSteps, fSteps)
	}
}

// TestFaultRouterDetour kills a link on the preferred dimension-ordered
// path and checks the packet still arrives (no loss), with the extra
// cycles charged. Without backtrack demotion this exact cut livelocks:
// the blocked packet's best detour undoes its last hop and it ping-pongs
// until the budget drops it.
func TestFaultRouterDetour(t *testing.T) {
	m := mesh.MustNew(5)
	f := fault.NewMap(5)
	// The packet 0→4 prefers the top row; sever it at 1-2.
	f.KillLink(1, 2)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 4, id: 1}}
	delivered, steps, lost := NewEngine[item](m).Route(nil, m.Full(), items, func(v item) int { return v.dest }, false, m.Faults())
	if lost != 0 {
		t.Fatalf("lost %d packets around a detourable cut", lost)
	}
	if len(delivered[4]) != 1 || delivered[4][0].id != 1 {
		t.Fatalf("packet not delivered: %v", delivered[4])
	}
	if steps < 5 {
		t.Errorf("detour charged %d cycles, want ≥ 5 (healthy distance is 4)", steps)
	}
}

// TestFaultRouterDoubleCutDrops documents the limitation of local greedy
// detouring: with the top row severed twice (1-2 and 6-7) the packet
// 0→4 would have to plan around both cuts at once, which a one-hop
// lookahead cannot do. The requirement is bounded failure — the packet
// is dropped and counted once the retry budget runs out, not routed
// forever.
func TestFaultRouterDoubleCutDrops(t *testing.T) {
	m := mesh.MustNew(5)
	f := fault.NewMap(5)
	f.KillLink(1, 2)
	f.KillLink(6, 7)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 4, id: 1}}
	delivered, steps, lost := NewEngine[item](m).Route(nil, m.Full(), items, func(v item) int { return v.dest }, false, m.Faults())
	if lost != 1 {
		t.Errorf("lost = %d, want 1 (double cut defeats local detouring)", lost)
	}
	if len(delivered[4]) != 0 {
		t.Errorf("unexpected delivery through a double cut: %v", delivered[4])
	}
	if budget := int64(16*(5+5) + 4*1); steps > budget {
		t.Errorf("dropped after %d cycles, budget is %d — retry not bounded", steps, budget)
	}
}

// TestFaultRouterDeadDestination: packets to dead nodes are lost at
// injection, everything else still flows.
func TestFaultRouterDeadDestination(t *testing.T) {
	m := mesh.MustNew(4)
	f := fault.NewMap(4)
	f.KillNode(15)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 15, id: 1}, {dest: 5, id: 2}}
	delivered, _, lost := NewEngine[item](m).Route(nil, m.Full(), items, func(v item) int { return v.dest }, false, m.Faults())
	if lost != 1 {
		t.Errorf("lost = %d, want 1 (the dead-destination packet)", lost)
	}
	if len(delivered[5]) != 1 || delivered[5][0].id != 2 {
		t.Errorf("live packet not delivered: %v", delivered[5])
	}
}

// TestFaultRouterSlowLink: a slow link stretches the cycle count but
// loses nothing.
func TestFaultRouterSlowLink(t *testing.T) {
	m := mesh.MustNew(4)
	healthyItems := func() [][]item {
		items := make([][]item, m.N)
		items[0] = []item{{dest: 3, id: 1}}
		return items
	}
	_, base, lost0 := NewEngine[item](m).Route(nil, m.Full(), healthyItems(), func(v item) int { return v.dest }, false, nil)
	if lost0 != 0 {
		t.Fatal("healthy run lost packets")
	}
	f := fault.NewMap(4)
	f.SlowLink(1, 2, 4)
	m.SetFaults(f)
	delivered, slow, lost := NewEngine[item](m).Route(nil, m.Full(), healthyItems(), func(v item) int { return v.dest }, false, m.Faults())
	m.SetFaults(nil)
	if lost != 0 || len(delivered[3]) != 1 {
		t.Fatalf("slow link lost the packet (lost=%d)", lost)
	}
	if slow <= base {
		t.Errorf("slow-link route took %d cycles, healthy %d — no slowdown charged", slow, base)
	}
}

// TestFaultRouterWalledIn: a node with every link dead cannot be
// reached; its packets are dropped once the budget or the idle break
// triggers, not spun forever.
func TestFaultRouterWalledIn(t *testing.T) {
	m := mesh.MustNew(4)
	f := fault.NewMap(4)
	// Isolate processor 5 (links to 1, 4, 6, 9) without killing it.
	f.KillLink(5, 1)
	f.KillLink(5, 4)
	f.KillLink(5, 6)
	f.KillLink(5, 9)
	m.SetFaults(f)
	items := make([][]item, m.N)
	items[0] = []item{{dest: 5, id: 1}, {dest: 10, id: 2}}
	delivered, _, lost := NewEngine[item](m).Route(nil, m.Full(), items, func(v item) int { return v.dest }, false, m.Faults())
	if lost != 1 {
		t.Errorf("lost = %d, want 1 (the walled-in destination)", lost)
	}
	if len(delivered[10]) != 1 {
		t.Errorf("reachable packet not delivered")
	}
}

// TestSortInternalRoutingIgnoresMachineFaults pins the explicit
// fault-map contract of Engine.Route: only the map passed in is
// consulted. RotateSort's row rotations and staged routing pass nil, so
// installing dead and slow links on the machine must leave their
// output and step counts exactly as on a healthy machine.
func TestSortInternalRoutingIgnoresMachineFaults(t *testing.T) {
	healthy, faulted := mesh.MustNew(9), mesh.MustNew(9)
	f := fault.NewMap(9)
	for row := 0; row < 9; row++ {
		f.KillLink(row*9+3, row*9+4) // cuts every row's rotation path
	}
	f.KillLink(4*9+6, 5*9+6)
	f.SlowLink(7*9+1, 7*9+2, 3)
	faulted.SetFaults(f)
	key := func(v item) uint64 { return v.key }
	dest := func(v item) int { return v.dest }
	for seed := int64(0); seed < 4; seed++ {
		mk := func(m *mesh.Machine) [][]item {
			return scatterItems(m, m.Full(), 2*m.N, rand.New(rand.NewSource(seed)))
		}
		wantOut, wantL, wantSteps := SortSnakeWith(RotateSort, healthy, healthy.Full(), mk(healthy), key)
		gotOut, gotL, gotSteps := SortSnakeWith(RotateSort, faulted, faulted.Full(), mk(faulted), key)
		if gotSteps != wantSteps || gotL != wantL || !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("seed %d: RotateSort on a faulted machine: %d steps (L=%d), healthy %d (L=%d)",
				seed, gotSteps, gotL, wantSteps, wantL)
		}
		wantDel, wantCost := RouteStaged(healthy, healthy.Full(), 3, 9, mk(healthy), dest)
		gotDel, gotCost := RouteStaged(faulted, faulted.Full(), 3, 9, mk(faulted), dest)
		if gotCost != wantCost || !reflect.DeepEqual(gotDel, wantDel) {
			t.Fatalf("seed %d: RouteStaged on a faulted machine: cost %+v, healthy %+v", seed, gotCost, wantCost)
		}
	}
}
