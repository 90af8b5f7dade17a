// Command e2ebench is the repository's end-to-end benchmark: host time
// per simulated PRAM step, layer by layer, on three workloads (see
// README.md). Each invocation runs one workload in its own process,
// checks every output, and prints its metrics with the last line a JSON
// object:
//
//	bash e2ebench/run.sh --workload dense-81 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// and a traced pass, reports the per-layer metrics, and writes the
// traced pass's span trees and rollups to <out>/trace-<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"meshpram/internal/sim"
	"meshpram/internal/trace"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"dense-81", "churn-local-27", "serve-mix"}

// denseScenario is healthy prefix sums over a full side-81 mesh
// (q=3, d=5, k=2; α≈1.05).
func denseScenario(seed int64) sim.Scenario {
	return sim.Scenario{
		Side: 81, Q: 3, D: 5, K: 2,
		Program: "prefixsum", Size: 4096, Seed: seed,
		Backend: sim.BackendMesh, Workers: 1,
	}
}

// churnScenario is prefix sums on side 27 (q=3, d=4, k=2; α≈1.06)
// under seeded module churn with eager repair and gossip fault views.
func churnScenario(seed int64) sim.Scenario {
	return sim.Scenario{
		Side: 27, Q: 3, D: 4, K: 2,
		Program: "prefixsum", Size: 729, Seed: seed,
		Backend:       sim.BackendMesh,
		Workers:       1,
		FaultSchedule: fmt.Sprintf("churn:module=0.005,repair=10,until=%d,seed=%d", churnHorizon, seed),
		Repair:        "eager",
		FaultView:     "local",
	}
}

// churnHorizon is the churn schedule's length in simulator steps. A
// lap runs the program once (22 simulator steps), so it meets the
// schedule's first deaths, revivals and repairs; the schedule's later
// draws never change those.
const churnHorizon = 200

// churnTimelines is how many fault timelines one churn run cycles
// through. Host time per step depends on where the faults fall, so a
// run averages over several timelines, all derived from its seed.
const churnTimelines = 5

// denseLapCycles is the charged-cycle count of one dense-81 program run.
// The program's addresses do not depend on its input values, so every
// seed charges the same.
const denseLapCycles = 806677

func stepWorkloadFor(name string, seed int64) *stepWorkload {
	switch name {
	case "dense-81":
		return &stepWorkload{scenarios: []sim.Scenario{denseScenario(seed)}, tailPct: 90, minLaps: 4, lapCycles: denseLapCycles}
	case "churn-local-27":
		w := &stepWorkload{tailPct: 90, minLaps: churnTimelines}
		for i := int64(0); i < churnTimelines; i++ {
			w.scenarios = append(w.scenarios, churnScenario(seed*churnTimelines+i))
		}
		return w
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: dense-81 | churn-local-27 | serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the trace file")
	flag.Parse()

	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: --trace %d (want 0 or 1)\n", *traced)
		return 2
	}
	rep := newReport()
	var err error
	switch w := stepWorkloadFor(*workload, *seed); {
	case *workload == "serve-mix":
		err = runServe(rep, *seed, *seconds, *traced == 1, *out, serveMinMisses, serveReplay)
	case w != nil:
		err = runSteps(rep, w, *workload, *seconds, *traced == 1, *out)
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	ok, err := rep.emit(os.Stdout, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runSteps runs a step workload: end-to-end metrics untraced, or an
// untraced and a traced pass for the per-layer metrics.
func runSteps(rep *report, w *stepWorkload, name string, seconds float64, traced bool, out string) error {
	ss := &setupSampler{sc: w.scenarios[0]}
	if !traced {
		p, err := w.runPass(rep, seconds, w.minLaps, ss)
		if err != nil {
			return err
		}
		setStepEndToEnd(rep, w, p, ss.times())
		return nil
	}
	if err := ss.take(setupReps); err != nil {
		return err
	}
	setSetupLayers(rep, ss.times())
	plain, err := w.runPass(rep, seconds/2, 1, nil)
	if err != nil {
		return err
	}
	sink := newSpanSink()
	var p *stepPass
	rt, err := measureRuntime(func() error {
		var err error
		p, err = w.runPass(rep, seconds/2, 1, nil, sim.TraceSink(sink))
		return err
	})
	if err != nil {
		return err
	}
	setTracedLayers(rep, sink.r, rt, p.laps)
	plainRate := float64(plain.steps()) / (float64(plain.stepNs) / 1e9)
	tracedRate := float64(p.steps()) / (float64(p.stepNs) / 1e9)
	rep.set("trace.overhead.pram_steps_per_s", (plainRate-tracedRate)/plainRate)
	rep.set("trace.overhead.req_per_s", (plainRate-tracedRate)/plainRate)
	return writeTrace(out, name, sink)
}

// setStepEndToEnd reports a step workload's end-to-end metrics. Every
// PRAM step is one request that runs the simulator (a miss); the ideal
// PRAM answering the same request is the hit.
func setStepEndToEnd(rep *report, w *stepWorkload, p *stepPass, st setupTimes) {
	pct, tailMs, err := tail(p.stepMs, w.tailPct)
	if err != nil {
		rep.fail("%v", err)
	}
	rate := float64(p.steps()) / (float64(p.stepNs) / 1e9)
	rep.set("pram_steps_per_s", rate)
	rep.set("req_per_s", rate)
	rep.set("step_ms.p50", median(p.stepMs))
	rep.set("step_ms.tail", tailMs)
	rep.set("miss_ms.p50", median(p.stepMs))
	rep.set("miss_ms.tail", tailMs)
	rep.set("hit_ms.p50", median(p.idealMs))
	// Charged cycles over one lap of every scenario: the same set of laps
	// in every run of a seed.
	var cycles int64
	var steps int
	for _, l := range p.laps[:len(w.scenarios)] {
		cycles += l.meshCycles
		steps += l.steps
	}
	rep.set("mesh_cycles_per_pram_step", float64(cycles)/float64(steps))
	rep.set("setup_s", st.total)
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("ok_frac", okFrac(rep))
	rep.note("steps=%d laps=%d tail=p%g (%d samples) cycles=%d over the first %d laps", p.steps(), len(p.laps), pct,
		len(p.stepMs), cycles, len(w.scenarios))
}

func okFrac(rep *report) float64 {
	if rep.attempted == 0 {
		return 0
	}
	return 1 - float64(rep.failed)/float64(rep.attempted)
}

// setSetupLayers reports the median cold-construction layers.
func setSetupLayers(rep *report, st setupTimes) {
	rep.set("setup.scheme_ms", st.scheme)
	rep.set("setup.config_ms", st.config)
	rep.set("setup.backend_ms", st.backend+st.server)
}

// setTracedLayers reports a traced pass: its span rollup, the runtime's
// work and its laps' counters, per ExecStep call.
func setTracedLayers(rep *report, r *rollup, rt runtimeDelta, laps []lapResult) {
	var execs int
	var execNs int64
	for _, l := range laps {
		execs += l.execs
		execNs += l.execNs
	}
	setRollupLayers(rep, r, execs, execNs)
	rt.set(rep, execs)
	setLapLayers(rep, laps, execs)
}

// setRollupLayers reports the span rollup of a traced pass per ExecStep
// call; execNs is the wall time spent inside those calls.
func setRollupLayers(rep *report, r *rollup, execs int, execNs int64) {
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(execs) }
	s := r.selfNs
	rep.set("route.greedy.forward_ms", per(s[bGreedyFwd]))
	rep.set("route.greedy.return_ms", per(s[bGreedyRet]))
	rep.set("route.greedy.repair_ms", per(s[bGreedyRep]))
	if r.observed > 0 {
		rep.set("route.executed_per_charged", float64(r.executed)/float64(r.observed))
	}
	rep.set("route.packets", float64(r.packets)/float64(execs))
	rep.set("route.sort.self_ms", per(s[bSort]))
	rep.set("route.rank.self_ms", per(s[bRank]))
	rep.set("culling.self_ms", per(s[bCulling]))
	rep.set("core.self_ms", per(s[bCore]))
	rep.set("core.repair.self_ms", per(s[bRepair]))
	pramNs := execNs - r.stepNs
	rep.set("pram.self_ms", per(pramNs))
	var attributed int64
	for b, ns := range s {
		if b != bOther && b != bPram {
			attributed += ns
		}
	}
	if execNs > 0 {
		rep.set("trace.attributed_frac", float64(attributed+pramNs)/float64(execNs))
	}
	for _, ph := range []string{"culling", "sort", "rank", "forward", "access", "return", "repair"} {
		rep.set("charged."+ph, float64(r.charged[ph])/float64(execs))
	}
}

// setLapLayers reports the fault, repair, gossip and memory counters of
// a traced pass's laps, per ExecStep call (stale_max is a maximum, the
// memory figures are the last lap's).
func setLapLayers(rep *report, laps []lapResult, execs int) {
	var scrubs, repaired, lost, disc, rounds, applied, staleMax, lostPk, degraded int64
	for _, l := range laps {
		scrubs += int64(l.repair.Scrubs)
		repaired += int64(l.repair.Repaired)
		lost += int64(l.repair.Lost)
		disc += l.repair.DiscoverySteps
		rounds += l.view.Round
		applied += l.view.Applied
		staleMax = max(staleMax, l.view.StaleMax)
		lostPk += int64(l.lost)
		degraded += int64(l.degraded)
	}
	per := func(v int64) float64 { return float64(v) / float64(execs) }
	rep.set("core.repair.scrubs", per(scrubs))
	rep.set("core.repair.repaired", per(repaired))
	rep.set("core.repair.lost", per(lost))
	rep.set("core.repair.discovery_steps", per(disc))
	rep.set("faultview.rounds", per(rounds))
	rep.set("faultview.notices_applied", per(applied))
	rep.set("faultview.stale_max", float64(staleMax))
	rep.set("fault.lost_packets", per(lostPk))
	rep.set("fault.degraded_ops", per(degraded))
	last := laps[len(laps)-1].mem
	rep.set("core.mem.store_bytes", float64(last.Store))
	rep.set("core.mem.routing_bytes", float64(last.Routing))
}

// runtimeDelta is the Go runtime's work over a measured section.
type runtimeDelta struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
	cpu                time.Duration
}

// measureRuntime runs fn and returns the allocation, GC and process CPU
// it cost.
func measureRuntime(fn func() error) (runtimeDelta, error) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	read := func() ([4]float64, time.Duration) {
		metrics.Read(samples)
		var v [4]float64
		for i, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				v[i] = float64(s.Value.Uint64())
			case metrics.KindFloat64:
				v[i] = s.Value.Float64()
			}
		}
		return v, processCPU()
	}
	v0, c0 := read()
	err := fn()
	v1, c1 := read()
	return runtimeDelta{
		allocBytes: uint64(v1[0] - v0[0]),
		allocs:     uint64(v1[1] - v0[1]),
		gcCPU:      v1[2] - v0[2],
		totalCPU:   v1[3] - v0[3],
		cpu:        c1 - c0,
	}, err
}

// set reports the delta per op.
func (d runtimeDelta) set(rep *report, ops int) {
	rep.set("runtime.alloc_mb", float64(d.allocBytes)/(1<<20)/float64(ops))
	rep.set("runtime.allocs", float64(d.allocs)/float64(ops))
	if d.totalCPU > 0 {
		rep.set("runtime.gc_cpu_frac", d.gcCPU/d.totalCPU)
	}
	rep.set("runtime.cpu_ms", float64(d.cpu.Nanoseconds())/1e6/float64(ops))
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// traceFile is the JSON document a traced run leaves behind.
type traceFile struct {
	Workload string             `json:"workload"`
	Roots    int                `json:"roots"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Charged  map[string]int64   `json:"charged"`
	Trees    []*trace.Node      `json:"trees"`
}

// writeTrace writes the sink's rollup and first trees to
// <out>/trace-<workload>.json.
func writeTrace(out, workload string, s *spanSink) error {
	tf := traceFile{Workload: workload, Roots: s.r.roots, SelfMs: map[string]float64{}, Charged: s.r.charged, Trees: s.trees}
	names := make([]string, 0, len(s.r.selfNs))
	for b := range s.r.selfNs {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		tf.SelfMs[b] = float64(s.r.selfNs[b]) / 1e6
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+workload+".json"), data, 0o644)
}
