// Package baseline implements the comparison schemes the experiments
// measure the paper's simulation against:
//
//   - NoReplication: one copy per variable placed by a fixed hash — the
//     classic single-copy organization whose deterministic worst case
//     (all n requests in one module) is the reason replication exists
//     (experiment E8);
//   - RandomMOS: an Upfal–Wigderson-style memory organization with
//     2c−1 copies per variable placed by a random function and accessed
//     through timestamped majority quorums of size c. It matches the
//     paper's consistency machinery but needs an explicit Θ(M·(2c−1))
//     memory map, the space cost the constructive scheme avoids
//     (experiment E10).
//
// Both run on the same mesh substrate and cost model as internal/core:
// requests are routed with a sorted greedy (l1,l2)-routing and return
// to their origins, and every charged step comes from the same
// primitives in internal/route. Each Step builds one span tree on the
// machine's cost ledger (sort/forward/access/return charged leaves plus
// the route layer's observe detail); StepCost is the phase-total view
// of that tree.
package baseline

import (
	"fmt"
	"math/rand"

	"meshpram/internal/mesh"
	"meshpram/internal/route"
	"meshpram/internal/trace"
)

// Word mirrors core.Word.
type Word = int64

// Op mirrors core.Op to avoid an import cycle in callers that use both.
type Op struct {
	Origin  int
	Var     int
	IsWrite bool
	Value   Word
}

// StepCost is the charged breakdown of a baseline step.
type StepCost struct {
	Sort    int64
	Forward int64
	Access  int64
	Return  int64
}

// Total returns the summed steps.
func (c StepCost) Total() int64 { return c.Sort + c.Forward + c.Access + c.Return }

// --- NoReplication ------------------------------------------------------

// NoReplication stores each variable once, on processor hash(v).
type NoReplication struct {
	M    *mesh.Machine
	Vars int

	store []map[int]Word
	mult  uint64
	cw    *CWHash // non-nil: Carter–Wegman placement (see universal.go)

	// Persistent router and per-step buffers: a batch loop routes
	// without reallocating queue or delivery storage (entries are
	// truncated, never freed, between steps).
	eng  *route.Engine[nrPkt]
	pkts [][]nrPkt // injection / post-sort layout
	fwd  [][]nrPkt // forward-route deliveries
	ret  [][]nrPkt // return-route deliveries
}

// NewNoReplication creates the single-copy baseline.
func NewNoReplication(side, vars int) (*NoReplication, error) {
	m, err := mesh.New(side)
	if err != nil {
		return nil, err
	}
	m.AttachLedger(trace.New())
	return &NoReplication{
		M:     m,
		Vars:  vars,
		store: make([]map[int]Word, m.N),
		mult:  0x9e3779b97f4a7c15,
		eng:   route.NewEngine[nrPkt](m),
		pkts:  make([][]nrPkt, m.N),
		fwd:   make([][]nrPkt, m.N),
		ret:   make([][]nrPkt, m.N),
	}, nil
}

// SetEngineMode selects the routing engine's execution strategy
// (route.ModeEvent default; route.ModeCycle forces the cycle-stepped
// reference loop). Results are bit-identical in both modes.
func (b *NoReplication) SetEngineMode(m route.EngineMode) { b.eng.SetMode(m) }

// Home returns the processor storing variable v.
func (b *NoReplication) Home(v int) int {
	if b.cw != nil {
		return b.cw.Apply(v)
	}
	return int((uint64(v) * b.mult >> 17) % uint64(b.M.N))
}

// VarsOnProc returns up to max variables homed on processor p — the
// adversarial request set of experiment E8.
func (b *NoReplication) VarsOnProc(p, max int) []int {
	var out []int
	for v := 0; v < b.Vars && len(out) < max; v++ {
		if b.Home(v) == p {
			out = append(out, v)
		}
	}
	return out
}

// MapBytes returns the memory-map state a processor must hold: the hash
// multiplier only.
func (b *NoReplication) MapBytes() int64 { return 8 }

type nrPkt struct {
	op     int32
	origin int
	dest   int
	v      int
	isW    bool
	val    Word
}

// Step executes one batch of distinct-variable requests and returns
// read results aligned with ops plus the cost breakdown.
func (b *NoReplication) Step(ops []Op) ([]Word, StepCost) {
	m := b.M
	ld := m.Ledger()
	step := ld.Begin("step", trace.PhaseOther)
	pkts := b.pkts // empty entries: drained by the previous step's routing
	seen := make(map[int]bool, len(ops))
	for i, op := range ops {
		if op.Var < 0 || op.Var >= b.Vars {
			panic(fmt.Sprintf("baseline: variable %d out of range", op.Var))
		}
		if seen[op.Var] {
			panic(fmt.Sprintf("baseline: duplicate variable %d", op.Var))
		}
		seen[op.Var] = true
		pkts[op.Origin] = append(pkts[op.Origin], nrPkt{
			op: int32(i), origin: op.Origin, dest: b.Home(op.Var),
			v: op.Var, isW: op.IsWrite, val: op.Value,
		})
	}
	step.AddPackets(int64(len(ops)))
	full := m.Full()
	sorted, _, sortSteps := route.SortSnakeFast(m, full, pkts, func(p nrPkt) uint64 { return uint64(p.dest) })
	lf := ld.Begin("sort", trace.PhaseSort)
	m.AddSteps(sortSteps)
	lf.End()
	delivered, cycles, lost := b.eng.Route(b.fwd, full, sorted, func(p nrPkt) int { return p.dest }, false, nil)
	lf = ld.Begin("forward", trace.PhaseForward)
	m.AddSteps(cycles)
	lf.End()

	maxPer := 0
	for p := range delivered {
		if len(delivered[p]) > maxPer {
			maxPer = len(delivered[p])
		}
		for j := range delivered[p] {
			pk := &delivered[p][j]
			if pk.isW {
				if b.store[p] == nil {
					b.store[p] = make(map[int]Word)
				}
				b.store[p][pk.v] = pk.val
			} else if b.store[p] != nil {
				pk.val = b.store[p][pk.v]
			} else {
				pk.val = 0
			}
		}
	}
	lf = ld.Begin("access", trace.PhaseAccess)
	m.AddSteps(int64(maxPer))
	lf.End()

	home, back, lostBack := b.eng.Route(b.ret, full, delivered, func(p nrPkt) int { return p.origin }, false, nil)
	if lost+lostBack != 0 {
		panic(fmt.Sprintf("baseline: healthy routing lost %d packets", lost+lostBack))
	}
	lf = ld.Begin("return", trace.PhaseReturn)
	m.AddSteps(back)
	lf.End()

	res := make([]Word, len(ops))
	for p := range home {
		for _, pk := range home[p] {
			if !pk.isW {
				res[pk.op] = pk.val
			}
		}
		home[p] = home[p][:0] // leave the return buffer empty for reuse
	}
	for i, op := range ops {
		if op.IsWrite {
			res[i] = op.Value
		}
	}
	step.End()
	return res, costFromSpan(step)
}

// costFromSpan is the StepCost view of one baseline step tree.
func costFromSpan(step *trace.Span) StepCost {
	pt := step.PhaseTotals()
	return StepCost{
		Sort:    pt[trace.PhaseSort],
		Forward: pt[trace.PhaseForward],
		Access:  pt[trace.PhaseAccess],
		Return:  pt[trace.PhaseReturn],
	}
}

// --- RandomMOS ----------------------------------------------------------

// RandomMOS replicates every variable into 2c−1 copies on random
// processors and accesses majority quorums of c timestamped copies.
type RandomMOS struct {
	M *mesh.Machine
	C int // quorum size; 2C−1 copies per variable

	vars  int
	place [][]int32 // place[v] = the 2c−1 processors holding v's copies
	store []map[int64]tsCell
	now   int64

	// Persistent router and per-step buffers (see NoReplication).
	eng  *route.Engine[rmPkt]
	pkts [][]rmPkt
	fwd  [][]rmPkt
	ret  [][]rmPkt
}

// SetEngineMode selects the routing engine's execution strategy
// (route.ModeEvent default; route.ModeCycle forces the cycle-stepped
// reference loop). Results are bit-identical in both modes.
func (b *RandomMOS) SetEngineMode(m route.EngineMode) { b.eng.SetMode(m) }

type tsCell struct {
	val Word
	ts  int64
}

// NewRandomMOS builds the random memory organization with the given
// quorum size c ≥ 2 (redundancy 2c−1) and seed.
func NewRandomMOS(side, vars, c int, seed int64) (*RandomMOS, error) {
	if c < 2 {
		return nil, fmt.Errorf("baseline: quorum c=%d must be ≥ 2", c)
	}
	m, err := mesh.New(side)
	if err != nil {
		return nil, err
	}
	m.AttachLedger(trace.New())
	rng := rand.New(rand.NewSource(seed))
	b := &RandomMOS{
		M: m, C: c, vars: vars,
		place: make([][]int32, vars),
		store: make([]map[int64]tsCell, m.N),
		eng:   route.NewEngine[rmPkt](m),
		pkts:  make([][]rmPkt, m.N),
		fwd:   make([][]rmPkt, m.N),
		ret:   make([][]rmPkt, m.N),
	}
	for v := range b.place {
		procs := make([]int32, 2*c-1)
		used := map[int32]bool{}
		for j := range procs {
			p := int32(rng.Intn(m.N))
			for used[p] {
				p = int32(rng.Intn(m.N))
			}
			used[p] = true
			procs[j] = p
		}
		b.place[v] = procs
	}
	return b, nil
}

// MapBytes returns the explicit memory-map storage: 4 bytes per copy
// placement (the whole table must be replicated or partitioned among
// processors; we report the total).
func (b *RandomMOS) MapBytes() int64 { return int64(b.vars) * int64(2*b.C-1) * 4 }

type rmPkt struct {
	op     int32
	origin int
	dest   int
	slot   int64
	isW    bool
	val    Word
	ts     int64
}

// Step executes one batch of distinct-variable requests: for each, c of
// its 2c−1 copies (round-robin rotation per step for load spreading)
// are accessed; reads return the most recent timestamp.
func (b *RandomMOS) Step(ops []Op) ([]Word, StepCost) {
	m := b.M
	ld := m.Ledger()
	step := ld.Begin("step", trace.PhaseOther)
	b.now++
	pkts := b.pkts // empty entries: drained by the previous step's routing
	seen := make(map[int]bool, len(ops))
	for i, op := range ops {
		if op.Var < 0 || op.Var >= b.vars {
			panic(fmt.Sprintf("baseline: variable %d out of range", op.Var))
		}
		if seen[op.Var] {
			panic(fmt.Sprintf("baseline: duplicate variable %d", op.Var))
		}
		seen[op.Var] = true
		procs := b.place[op.Var]
		rot := int(b.now) % len(procs)
		for j := 0; j < b.C; j++ {
			k := (rot + j) % len(procs)
			pkts[op.Origin] = append(pkts[op.Origin], rmPkt{
				op: int32(i), origin: op.Origin, dest: int(procs[k]),
				slot: int64(op.Var)*int64(len(procs)) + int64(k),
				isW:  op.IsWrite, val: op.Value,
			})
		}
	}
	step.AddPackets(int64(len(ops) * b.C))
	full := m.Full()
	sorted, _, sortSteps := route.SortSnakeFast(m, full, pkts, func(p rmPkt) uint64 { return uint64(p.dest) })
	lf := ld.Begin("sort", trace.PhaseSort)
	m.AddSteps(sortSteps)
	lf.End()
	delivered, cycles, lost := b.eng.Route(b.fwd, full, sorted, func(p rmPkt) int { return p.dest }, false, nil)
	lf = ld.Begin("forward", trace.PhaseForward)
	m.AddSteps(cycles)
	lf.End()

	maxPer := 0
	for p := range delivered {
		if len(delivered[p]) > maxPer {
			maxPer = len(delivered[p])
		}
		for j := range delivered[p] {
			pk := &delivered[p][j]
			if pk.isW {
				if b.store[p] == nil {
					b.store[p] = make(map[int64]tsCell)
				}
				b.store[p][pk.slot] = tsCell{val: pk.val, ts: b.now}
				pk.ts = b.now
			} else if b.store[p] != nil {
				c := b.store[p][pk.slot]
				pk.val, pk.ts = c.val, c.ts
			}
		}
	}
	lf = ld.Begin("access", trace.PhaseAccess)
	m.AddSteps(int64(maxPer))
	lf.End()

	home, back, lostBack := b.eng.Route(b.ret, full, delivered, func(p rmPkt) int { return p.origin }, false, nil)
	if lost+lostBack != 0 {
		panic(fmt.Sprintf("baseline: healthy routing lost %d packets", lost+lostBack))
	}
	lf = ld.Begin("return", trace.PhaseReturn)
	m.AddSteps(back)
	lf.End()

	res := make([]Word, len(ops))
	best := make([]int64, len(ops))
	for i := range best {
		best[i] = -1
	}
	for p := range home {
		for _, pk := range home[p] {
			if pk.ts > best[pk.op] {
				best[pk.op] = pk.ts
				res[pk.op] = pk.val
			}
		}
		home[p] = home[p][:0] // leave the return buffer empty for reuse
	}
	for i, op := range ops {
		if op.IsWrite {
			res[i] = op.Value
		}
	}
	step.End()
	return res, costFromSpan(step)
}
