package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"meshpram/internal/core"
	"meshpram/internal/faultview"
	"meshpram/internal/pram"
	"meshpram/internal/sim"
)

// stepWorkload drives a PRAM program step by step through
// pram.Program.Next and pram.Mesh.ExecStep, checking every step against
// the ideal PRAM.
//
// The unit of repetition is a lap: a freshly built backend running one
// scenario's program to completion and reading its outputs. Lap i runs
// scenarios[i mod len(scenarios)]. A lap is a pure function of its
// scenario, so a pass of whole laps repeats its step mix, charged
// cycles and fault timeline exactly, and a lap that reruns a scenario
// must charge what its first run did.
type stepWorkload struct {
	scenarios []sim.Scenario
	tailPct   float64
	minLaps   int // a timed pass runs at least this many laps
	// lapCycles is the recorded charged-cycle count of every lap (0 when
	// it depends on the scenario's seed).
	lapCycles int64
}

// lapResult is what one lap did.
type lapResult struct {
	steps      int   // program steps (output fetches excluded)
	execs      int   // ExecStep calls, fetches included
	execNs     int64 // wall time inside ExecStep, fetches included
	meshCycles int64 // charged cycles of the program steps
	repair     core.RepairStats
	view       faultview.Stats
	lost       int
	degraded   int // ExecStep calls with a degraded fault report
	mem        core.MemReport
}

// stepPass is one timed pass over whole laps.
type stepPass struct {
	stepMs  []float64 // Next+ExecStep per program step
	idealMs []float64 // the ideal PRAM's mean ExecStep time per replayed lap
	stepNs  int64     // sum of stepMs, in ns
	laps    []lapResult
}

func (p *stepPass) steps() int { return len(p.stepMs) }

// runPass runs whole laps until seconds have passed and at least
// minLaps laps are done. Between laps it takes the set-up
// constructions ss has due (ss may be nil). extra options (a trace
// sink) apply to every lap's configuration.
func (w *stepWorkload) runPass(rep *report, seconds float64, minLaps int, ss *setupSampler, extra ...sim.Option) (*stepPass, error) {
	p := &stepPass{}
	start := time.Now()
	for i := 0; i < minLaps || time.Since(start).Seconds() < seconds; i++ {
		if ss != nil {
			if err := ss.pace(time.Since(start).Seconds() / seconds); err != nil {
				return nil, err
			}
		}
		lr, err := lap(rep, p, w.scenarios[i%len(w.scenarios)], extra)
		if err != nil {
			return nil, err
		}
		p.laps = append(p.laps, lr)
		switch {
		case w.lapCycles != 0 && lr.meshCycles != w.lapCycles:
			rep.fail("lap %d charged %d cycles, recorded value is %d", i, lr.meshCycles, w.lapCycles)
		case i >= len(w.scenarios):
			if prev := p.laps[i-len(w.scenarios)]; lr.meshCycles != prev.meshCycles || lr.steps != prev.steps {
				rep.fail("lap %d charged %d cycles in %d steps, its scenario's first lap %d in %d",
					i, lr.meshCycles, lr.steps, prev.meshCycles, prev.steps)
			}
		}
	}
	if ss != nil {
		if err := ss.pace(1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// lap builds a fresh mesh backend and ideal reference for sc and runs
// its program on both.
func lap(rep *report, p *stepPass, sc sim.Scenario, extra []sim.Option) (lapResult, error) {
	var lr lapResult
	cfg, err := sim.FromScenario(sc, extra...)
	if err != nil {
		return lr, err
	}
	b, err := pram.NewBackend(pram.BackendMesh, cfg)
	if err != nil {
		return lr, err
	}
	mb := b.(*pram.Mesh)
	ideal, err := pram.NewBackend(pram.BackendIdeal, cfg)
	if err != nil {
		return lr, err
	}
	exec := func(ops []pram.Op) ([]pram.Word, error) {
		t := time.Now()
		res, err := mb.ExecStep(ops)
		lr.execNs += time.Since(t).Nanoseconds()
		lr.execs++
		if r := mb.LastReport(); r.Degraded() {
			lr.degraded++
		}
		return res, err
	}
	prog, err := pram.BuildProgram(sc.Program, sc.Size, sc.Seed)
	if err != nil {
		return lr, err
	}
	prev := make([]pram.Word, prog.Procs())
	var opsLog [][]pram.Op
	for t := 0; ; t++ {
		t0 := time.Now()
		ops, done := prog.Next(t, prev)
		if done {
			break
		}
		got, err := exec(ops)
		d := time.Since(t0)
		rep.attempted++
		if err != nil {
			rep.fail("step %d: %v", t, err)
			return lr, err
		}
		opsLog = append(opsLog, ops)
		want, err := ideal.ExecStep(ops)
		if err != nil {
			return lr, fmt.Errorf("ideal step %d: %w", t, err)
		}
		p.stepMs = append(p.stepMs, float64(d.Nanoseconds())/1e6)
		p.stepNs += d.Nanoseconds()
		lr.steps++
		switch r := mb.LastReport(); {
		case r != nil && len(r.Unrecoverable) > 0:
			rep.fail("step %d: %d unrecoverable variables", t, len(r.Unrecoverable))
		case !slices.Equal(got, want):
			rep.fail("step %d: mesh reads differ from the ideal PRAM", t)
		}
		prev = got
	}
	lr.meshCycles = mb.Steps()
	if err := checkOutputs(rep, prog, exec, ideal); err != nil {
		return lr, err
	}
	lr.repair = mb.RepairStats()
	if v := mb.Sim.FaultView(); v != nil {
		lr.view = v.Stats()
	}
	if tr := mb.TotalReport(); tr != nil {
		lr.lost = tr.LostPackets
	}
	lr.mem = mb.Sim.MemReport()
	return lr, replayIdeal(p, cfg, opsLog)
}

// idealReplays is how often a lap's steps are replayed on the ideal
// PRAM for hit_ms.
const idealReplays = 5

// replayIdeal times the lap's steps on fresh ideal PRAMs and records
// each replay's mean time per step. Timed apart from the mesh steps,
// after a collection, the microsecond ideal steps do not pick up the GC
// work the mesh steps leave behind. A per-step median would sit on one
// step: ideal write steps cost tens of times more than read steps, and
// a lap has one more write step than read steps.
func replayIdeal(p *stepPass, cfg sim.Config, opsLog [][]pram.Op) error {
	runtime.GC()
	for r := 0; r < idealReplays; r++ {
		ideal, err := pram.NewBackend(pram.BackendIdeal, cfg)
		if err != nil {
			return err
		}
		t := time.Now()
		for _, ops := range opsLog {
			if _, err := ideal.ExecStep(ops); err != nil {
				return err
			}
		}
		p.idealMs = append(p.idealMs, float64(time.Since(t).Nanoseconds())/1e6/float64(len(opsLog)))
	}
	return nil
}

// checkOutputs reads the program's result region from the mesh and the
// ideal PRAM with one more step and compares the words.
func checkOutputs(rep *report, prog pram.Program, exec func([]pram.Op) ([]pram.Word, error), ideal pram.Backend) error {
	o, ok := prog.(pram.Outputs)
	if !ok {
		return nil
	}
	base, n := o.OutputRange()
	ops := make([]pram.Op, n)
	for i := range ops {
		ops[i] = pram.Op{Kind: pram.Read, Addr: base + i}
	}
	rep.attempted++
	got, err := exec(ops)
	if err != nil {
		rep.fail("output fetch: %v", err)
		return err
	}
	want, err := ideal.ExecStep(ops)
	if err != nil {
		return fmt.Errorf("ideal output fetch: %w", err)
	}
	if !slices.Equal(got, want) {
		rep.fail("output words differ from the ideal PRAM")
	}
	return nil
}
