package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSchemaMatchesBenchmarkJSON pins the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares, in order.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unitRe.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}

	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || !nameRe.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d printed", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s [%s], printed %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			continue
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		} else {
			maxOther = max(maxOther, *m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxOther)
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d printed", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s [%s], printed %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "e2ebench" {
		t.Errorf("paths = %v", bf.Paths)
	}
}
