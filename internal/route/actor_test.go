package route

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"meshpram/internal/mesh"
	"meshpram/internal/trace"
)

// The actor router must reproduce the sequential cycle simulation
// exactly: same deliveries in the same per-processor order and the same
// cycle count.
func TestActorRouterMatchesSequential(t *testing.T) {
	m := mesh.MustNew(8)
	rng := rand.New(rand.NewSource(31))
	regions := []mesh.Region{m.Full(), {R0: 1, C0: 2, H: 5, W: 4}, {R0: 0, C0: 0, H: 1, W: 8}}
	for _, r := range regions {
		for trial := 0; trial < 8; trial++ {
			count := rng.Intn(4 * r.Size())
			mk := func(seed int64) [][]item {
				lr := rand.New(rand.NewSource(seed))
				items := make([][]item, m.N)
				for i := 0; i < count; i++ {
					src := r.ProcAtSnake(m, lr.Intn(r.Size()))
					dst := r.ProcAtSnake(m, lr.Intn(r.Size()))
					items[src] = append(items[src], item{dest: dst, id: i})
				}
				return items
			}
			seed := rng.Int63()
			seqDel, seqCycles, _ := NewEngine[item](m).Route(nil, r, mk(seed), func(v item) int { return v.dest }, false, nil)
			actDel, actCycles := greedyRouteActors(m, r, mk(seed), func(v item) int { return v.dest })
			if seqCycles != actCycles {
				t.Fatalf("region %v count %d: cycles %d (seq) vs %d (actors)", r, count, seqCycles, actCycles)
			}
			for p := 0; p < m.N; p++ {
				if len(seqDel[p]) != len(actDel[p]) {
					t.Fatalf("region %v proc %d: %d vs %d deliveries", r, p, len(seqDel[p]), len(actDel[p]))
				}
				for j := range seqDel[p] {
					if seqDel[p][j] != actDel[p][j] {
						t.Fatalf("region %v proc %d slot %d: %+v vs %+v", r, p, j, seqDel[p][j], actDel[p][j])
					}
				}
			}
		}
	}
}

func TestActorRouterEmptyAndSelf(t *testing.T) {
	m := mesh.MustNew(4)
	items := make([][]item, m.N)
	_, cycles := greedyRouteActors(m, m.Full(), items, func(v item) int { return v.dest })
	if cycles != 0 {
		t.Fatalf("empty routing took %d cycles", cycles)
	}
	items[3] = append(items[3], item{dest: 3})
	del, cycles := greedyRouteActors(m, m.Full(), items, func(v item) int { return v.dest })
	if cycles != 0 || len(del[3]) != 1 {
		t.Fatalf("self delivery: cycles=%d", cycles)
	}
}

func TestActorRouterAllToOne(t *testing.T) {
	m := mesh.MustNew(6)
	mk := func() [][]item {
		items := make([][]item, m.N)
		for p := 0; p < m.N; p++ {
			items[p] = append(items[p], item{dest: 0, id: p})
		}
		return items
	}
	seqDel, seqCycles, _ := NewEngine[item](m).Route(nil, m.Full(), mk(), func(v item) int { return v.dest }, false, nil)
	actDel, actCycles := greedyRouteActors(m, m.Full(), mk(), func(v item) int { return v.dest })
	if seqCycles != actCycles || len(seqDel[0]) != len(actDel[0]) {
		t.Fatalf("hotspot mismatch: %d/%d vs %d/%d", seqCycles, len(seqDel[0]), actCycles, len(actDel[0]))
	}
}

func TestBarrier(t *testing.T) {
	b := newBarrier(4)
	var phase [4]int
	done := make(chan bool)
	for i := 0; i < 4; i++ {
		go func(i int) {
			for round := 0; round < 100; round++ {
				phase[i] = round
				b.wait()
				// After the barrier, everyone must be at the same round.
				for j := 0; j < 4; j++ {
					if phase[j] < round {
						panic("barrier leaked a laggard")
					}
				}
				b.wait()
			}
			done <- true
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

func BenchmarkActorRouterPermutation(b *testing.B) {
	m := mesh.MustNew(16)
	perm := rand.New(rand.NewSource(1)).Perm(m.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([][]item, m.N)
		for p := 0; p < m.N; p++ {
			items[p] = append(items[p], item{dest: perm[p]})
		}
		greedyRouteActors(m, m.Full(), items, func(v item) int { return v.dest })
	}
}

// gpkt is a packet in flight inside the actor-model router.
type gpkt[T any] struct {
	val  T
	dest int
	seq  int32 // injection order, deterministic tie-break
}

// nextHop is the column-first XY step from p toward dest: the outgoing
// direction (0=-col, 1=+col, 2=-row, 3=+row) and the neighbor.
func nextHop(m *mesh.Machine, p, dest int) (dir, to int) {
	pc, dc := m.ColOf(p), m.ColOf(dest)
	switch {
	case pc > dc:
		return 0, p - 1
	case pc < dc:
		return 1, p + 1
	}
	if m.RowOf(p) > m.RowOf(dest) {
		return 2, p - m.Side
	}
	return 3, p + m.Side
}

// greedyRouteActors is a distributed execution of healthy greedy
// routing on the plain mesh: one goroutine per processor of the region,
// communicating over per-link channels, synchronized by a cyclic
// barrier per routing cycle — the "goroutines map to processors"
// realization of the mesh. It shares no code with Engine, so it serves
// as the independent oracle for the engine's semantics: delivered
// packet order and the returned cycle count must equal Engine.Route's.
func greedyRouteActors[T any](m *mesh.Machine, r mesh.Region, items [][]T, dest func(T) int) (delivered [][]T, steps int64) {
	sp := m.Ledger().Begin("greedy-actors", trace.PhaseForward)
	defer func() {
		sp.Observe(steps)
		sp.End()
	}()
	delivered = make([][]T, m.N)
	var active atomic.Int64
	var seq int32
	queues := make([][]gpkt[T], m.N)
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			for _, v := range items[p] {
				d := dest(v)
				if !r.Contains(m, d) {
					panic("route: destination outside region")
				}
				if d == p {
					delivered[p] = append(delivered[p], v)
					continue
				}
				queues[p] = append(queues[p], gpkt[T]{val: v, dest: d, seq: seq})
				seq++
				active.Add(1)
			}
			items[p] = items[p][:0]
		}
	}
	sp.AddPackets(int64(seq))
	if active.Load() == 0 {
		return delivered, 0
	}

	// links[p][dir] carries the packet processor p sends in direction
	// dir this cycle (capacity 1: one packet per directed link/cycle).
	links := make([][4]chan gpkt[T], m.N)
	for row := r.R0; row < r.R0+r.H; row++ {
		for col := r.C0; col < r.C0+r.W; col++ {
			p := m.IDOf(row, col)
			for d := 0; d < 4; d++ {
				links[p][d] = make(chan gpkt[T], 1)
			}
		}
	}

	size := r.Size()
	bar := newBarrier(size)
	var cycles int64
	var wg sync.WaitGroup
	wg.Add(size)
	for i := 0; i < size; i++ {
		p := r.ProcAtSnake(m, i)
		go func(p int, first bool) {
			defer wg.Done()
			for {
				// Send phase: pick at most one packet per direction.
				q := queues[p]
				var best [4]int
				var bestDist [4]int
				for d := range best {
					best[d] = -1
				}
				for i, pk := range q {
					dir, _ := nextHop(m, p, pk.dest)
					dist := m.Dist(p, pk.dest)
					if best[dir] == -1 || dist > bestDist[dir] ||
						(dist == bestDist[dir] && pk.seq < q[best[dir]].seq) {
						best[dir] = i
						bestDist[dir] = dist
					}
				}
				sent := map[int]bool{}
				for d := 0; d < 4; d++ {
					if best[d] >= 0 {
						links[p][d] <- q[best[d]]
						sent[best[d]] = true
					}
				}
				if len(sent) > 0 {
					out := q[:0]
					for i, pk := range q {
						if !sent[i] {
							out = append(out, pk)
						}
					}
					queues[p] = out
				}
				bar.wait()

				// Receive phase: drain incoming links in the order the
				// sequential router appends arrivals (sources in
				// row-major order: north, west, east, south neighbor).
				recv := func(src, dir int) {
					select {
					case pk := <-links[src][dir]:
						if pk.dest == p {
							delivered[p] = append(delivered[p], pk.val)
							active.Add(-1)
						} else {
							queues[p] = append(queues[p], pk)
						}
					default:
					}
				}
				if m.RowOf(p) > r.R0 {
					recv(p-m.Side, 3) // from north neighbor, sent south
				}
				if m.ColOf(p) > r.C0 {
					recv(p-1, 1) // from west neighbor, sent east
				}
				if m.ColOf(p) < r.C0+r.W-1 {
					recv(p+1, 0) // from east neighbor, sent west
				}
				if m.RowOf(p) < r.R0+r.H-1 {
					recv(p+m.Side, 2) // from south neighbor, sent north
				}
				if first {
					// Single writer: only the first actor increments, and
					// bar.wait() orders the write against every read.
					cycles++
				}
				bar.wait()
				if active.Load() == 0 {
					return
				}
			}
		}(p, i == 0)
	}
	wg.Wait()
	return delivered, cycles
}

// barrier is a reusable cyclic barrier for n parties.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties have called wait for this generation.
func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
