package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshpram/internal/sim"
)

// tinyDense and tinyChurn are the step workloads shrunk to side 9.
func tinyDense() *stepWorkload {
	sc := denseScenario(3)
	sc.Side, sc.D, sc.Size = 9, 3, 64
	return &stepWorkload{scenarios: []sim.Scenario{sc}, tailPct: 90, minLaps: 2}
}

func tinyChurn() *stepWorkload {
	w := &stepWorkload{tailPct: 90, minLaps: 3}
	for seed := int64(3); seed < 5; seed++ {
		sc := churnScenario(seed)
		sc.Side, sc.D, sc.Size = 9, 3, 64
		sc.FaultSchedule = fmt.Sprintf("churn:module=0.02,repair=5,until=40,seed=%d", seed)
		w.scenarios = append(w.scenarios, sc)
	}
	return w
}

// emitResult checks a run's report and decodes its result line.
func emitResult(t *testing.T, rep *report, defs []metricDef) result {
	t.Helper()
	var buf bytes.Buffer
	ok, err := rep.emit(&buf, defs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("run not correct:\n%s", buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(defs) || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result line: %d metrics, attempted %d, failed %d", len(res.Metrics), res.Attempted, res.Failed)
	}
	return res
}

// checkEndToEnd requires every end-to-end metric to be set and nonzero.
func checkEndToEnd(t *testing.T, res result) {
	t.Helper()
	for _, d := range endToEnd {
		if res.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %g", d.Name, res.Metrics[d.Name].Value)
		}
	}
}

func TestSmokeStepWorkloads(t *testing.T) {
	for name, w := range map[string]*stepWorkload{"dense": tinyDense(), "churn": tinyChurn()} {
		t.Run(name, func(t *testing.T) {
			rep := newReport()
			if err := runSteps(rep, w, name, 0, false, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			checkEndToEnd(t, emitResult(t, rep, endToEnd))

			dir := t.TempDir()
			rep = newReport()
			if err := runSteps(rep, w, name, 0, true, dir); err != nil {
				t.Fatal(err)
			}
			res := emitResult(t, rep, perLayer)
			for _, m := range []string{"route.greedy.forward_ms", "route.greedy.return_ms", "culling.self_ms",
				"core.self_ms", "pram.self_ms", "charged.culling", "charged.forward", "runtime.cpu_ms"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %g", m, res.Metrics[m].Value)
				}
			}
			if f := res.Metrics["trace.attributed_frac"].Value; f < 0.9 {
				t.Errorf("layers account for %.3f of ExecStep time", f)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestChurnRunsRepairAndGossip(t *testing.T) {
	rep := newReport()
	if err := runSteps(rep, tinyChurn(), "churn", 0, true, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"core.repair.scrubs", "faultview.rounds", "faultview.notices_applied", "charged.repair"} {
		if rep.vals[m] <= 0 {
			t.Errorf("%s = %g on the churn workload", m, rep.vals[m])
		}
	}
}

// TestRecordedCyclesMismatchFails checks that a lap charging other
// cycles than recorded fails the run.
func TestRecordedCyclesMismatchFails(t *testing.T) {
	w := tinyDense()
	w.lapCycles = 12345
	rep := newReport()
	if _, err := w.runPass(rep, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatal("a lap with unrecorded cycles passed")
	}
	var buf bytes.Buffer
	if ok, _ := rep.emit(&buf, endToEnd); ok {
		t.Fatal("emit reported a failed run as correct")
	}
}

func TestSmokeServeMix(t *testing.T) {
	rep := newReport()
	if err := runServe(rep, 5, 0, false, t.TempDir(), 24, 4); err != nil {
		t.Fatal(err)
	}
	checkEndToEnd(t, emitResult(t, rep, endToEnd))

	rep = newReport()
	if err := runServe(rep, 5, 0, true, t.TempDir(), 24, 4); err != nil {
		t.Fatal(err)
	}
	res := emitResult(t, rep, perLayer)
	for _, m := range []string{"serve.hit_ratio", "serve.run_ms_per_miss", "serve.encode_ms_per_miss", "route.greedy.forward_ms"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %g", m, res.Metrics[m].Value)
		}
	}
}

func TestServeStreamMix(t *testing.T) {
	s := newServeStream(9)
	misses := 0
	for i := 0; i < 400; i++ {
		sc, miss := s.next()
		if i == 0 && !miss {
			t.Fatal("first request is not a miss")
		}
		if miss {
			if want := missShapeAt(misses); sc.Program != want.program || sc.Size != want.size {
				t.Fatalf("miss %d is %s/%d, want %s/%d", misses, sc.Program, sc.Size, want.program, want.size)
			}
			misses++
		}
	}
	if misses != 100 {
		t.Fatalf("%d misses in 400 requests, want 100", misses)
	}
}
