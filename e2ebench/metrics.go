package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one metric the benchmark reports: its name and unit as
// BENCHMARK.json declares them.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// all of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"pram_steps_per_s", "1/s"},
	{"step_ms.p50", "ms"},
	{"step_ms.tail", "ms"},
	{"req_per_s", "1/s"},
	{"hit_ms.p50", "ms"},
	{"miss_ms.p50", "ms"},
	{"miss_ms.tail", "ms"},
	{"mesh_cycles_per_pram_step", "cycles"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "fraction"},
}

// perLayer are the metrics of a traced run. Times are host self time
// per PRAM step (per miss for serve.*); a layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"route.greedy.forward_ms", "ms"},
	{"route.greedy.return_ms", "ms"},
	{"route.greedy.repair_ms", "ms"},
	{"route.executed_per_charged", "ratio"},
	{"route.packets", "count"},
	{"route.sort.self_ms", "ms"},
	{"route.rank.self_ms", "ms"},
	{"culling.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"pram.self_ms", "ms"},
	{"trace.attributed_frac", "fraction"},
	{"charged.culling", "cycles"},
	{"charged.sort", "cycles"},
	{"charged.rank", "cycles"},
	{"charged.forward", "cycles"},
	{"charged.access", "cycles"},
	{"charged.return", "cycles"},
	{"charged.repair", "cycles"},
	{"core.repair.self_ms", "ms"},
	{"core.repair.scrubs", "count"},
	{"core.repair.repaired", "count"},
	{"core.repair.lost", "count"},
	{"core.repair.discovery_steps", "count"},
	{"faultview.rounds", "count"},
	{"faultview.notices_applied", "count"},
	{"faultview.stale_max", "count"},
	{"fault.lost_packets", "count"},
	{"fault.degraded_ops", "count"},
	{"serve.hit_ratio", "fraction"},
	{"serve.run_ms_per_miss", "ms"},
	{"serve.transport_ms_per_miss", "ms"},
	{"serve.encode_ms_per_miss", "ms"},
	{"setup.scheme_ms", "ms"},
	{"setup.config_ms", "ms"},
	{"setup.backend_ms", "ms"},
	{"core.mem.store_bytes", "bytes"},
	{"core.mem.routing_bytes", "bytes"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.cpu_ms", "ms"},
	{"trace.overhead.pram_steps_per_s", "fraction"},
	{"trace.overhead.req_per_s", "fraction"},
}

// metricVal is one reported value with its unit.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// report collects a run's values and failures.
type report struct {
	vals      map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string // human-readable context printed above the result line
}

func newReport() *report { return &report{vals: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.vals[name] = v }

// fail records a failed operation with the reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// emit prints the notes, the problems and the metrics of defs as the
// final JSON line. A metric the run did not set is reported as 0; a
// non-finite value is a benchmark bug and fails the run.
func (r *report) emit(w io.Writer, defs []metricDef) (bool, error) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metricVal{},
	}
	for _, d := range defs {
		v := r.vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Fprintf(w, "FAIL: metric %s is %v\n", d.Name, v)
			v = 0
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricVal{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return res.Correct, err
}
