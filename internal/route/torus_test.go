package route

import (
	"math/rand"
	"testing"

	"meshpram/internal/mesh"
)

func TestTorusDist(t *testing.T) {
	m := mesh.MustNew(8)
	topo := torusTopo{m}
	cases := []struct {
		a, b, want int
	}{
		{m.IDOf(0, 0), m.IDOf(0, 7), 1},  // wrap column
		{m.IDOf(0, 0), m.IDOf(7, 0), 1},  // wrap row
		{m.IDOf(0, 0), m.IDOf(4, 4), 8},  // antipodal: 4+4 either way
		{m.IDOf(0, 0), m.IDOf(0, 3), 3},  // no wrap shorter
		{m.IDOf(2, 2), m.IDOf(2, 2), 0},  // self
		{m.IDOf(1, 1), m.IDOf(6, 6), 10}, // 5+5 wrap? fwd 5 back 3 → 3+3=6
	}
	cases[5].want = 6
	for _, c := range cases {
		if got := topo.dist(c.a, c.b); got != c.want {
			t.Errorf("torus dist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		// Torus distance never exceeds mesh distance.
		if topo.dist(c.a, c.b) > m.Dist(c.a, c.b) {
			t.Errorf("torus dist exceeds mesh dist for (%d,%d)", c.a, c.b)
		}
	}
}

// Following next() hops from any source must reach the destination in
// exactly dist() steps.
func TestTorusNextConvergesAlongShortestPath(t *testing.T) {
	m := mesh.MustNew(6)
	topo := torusTopo{m}
	for a := 0; a < m.N; a++ {
		for b := 0; b < m.N; b++ {
			p := a
			steps := 0
			for p != b {
				_, to := topo.next(p, b)
				if m.Dist(p, to) != 1 && !isWrapNeighbor(m, p, to) {
					t.Fatalf("next(%d,%d) jumped from %d to non-neighbor %d", a, b, p, to)
				}
				if topo.dist(to, b) != topo.dist(p, b)-1 {
					t.Fatalf("next(%d→%d) at %d did not reduce distance", a, b, p)
				}
				p = to
				steps++
				if steps > 2*m.Side {
					t.Fatalf("path %d→%d did not converge", a, b)
				}
			}
			if steps != topo.dist(a, b) {
				t.Fatalf("path %d→%d took %d hops, dist says %d", a, b, steps, topo.dist(a, b))
			}
		}
	}
}

func isWrapNeighbor(m *mesh.Machine, p, q int) bool {
	pr, pc := m.RowOf(p), m.ColOf(p)
	qr, qc := m.RowOf(q), m.ColOf(q)
	s := m.Side
	sameRow := pr == qr && (pc == 0 && qc == s-1 || pc == s-1 && qc == 0)
	sameCol := pc == qc && (pr == 0 && qr == s-1 || pr == s-1 && qr == 0)
	return sameRow || sameCol
}

func TestGreedyRouteTorusDelivers(t *testing.T) {
	m := mesh.MustNew(8)
	rng := rand.New(rand.NewSource(19))
	items := make([][]item, m.N)
	want := map[int]int{}
	for p := 0; p < m.N; p++ {
		for j := 0; j < 2; j++ {
			d := rng.Intn(m.N)
			items[p] = append(items[p], item{dest: d, id: p*2 + j})
			want[d]++
		}
	}
	delivered, steps, _ := NewEngine[item](m).Route(nil, m.Full(), items, func(v item) int { return v.dest }, true, nil)
	for p := 0; p < m.N; p++ {
		if len(delivered[p]) != want[p] {
			t.Fatalf("proc %d received %d, want %d", p, len(delivered[p]), want[p])
		}
	}
	if steps <= 0 {
		t.Fatal("zero steps for nontrivial routing")
	}
}

// The torus must beat the mesh on corner-to-corner traffic (diameter
// halves per axis).
func TestTorusBeatsMeshOnLongHaul(t *testing.T) {
	m := mesh.MustNew(16)
	mk := func() [][]item {
		items := make([][]item, m.N)
		// Shift by 12 per axis: mesh distance 12+12, torus distance 4+4
		// (the wrap way is shorter).
		for p := 0; p < m.N; p++ {
			r := (m.RowOf(p) + 12) % 16
			c := (m.ColOf(p) + 12) % 16
			items[p] = append(items[p], item{dest: m.IDOf(r, c), id: p})
		}
		return items
	}
	_, meshSteps, _ := NewEngine[item](m).Route(nil, m.Full(), mk(), func(v item) int { return v.dest }, false, nil)
	_, torusSteps, _ := NewEngine[item](m).Route(nil, m.Full(), mk(), func(v item) int { return v.dest }, true, nil)
	if torusSteps >= meshSteps {
		t.Fatalf("torus (%d) not faster than mesh (%d) on antipodal traffic", torusSteps, meshSteps)
	}
}
