package main

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"meshpram/internal/serve"
	"meshpram/internal/sim"
)

// TestFlagsCoverScenario pins the ISSUE's "one config surface"
// guarantee: every pramsim flag maps to exactly one sim.Scenario JSON
// field, and every Scenario field is reachable from a flag. Adding a
// Scenario field without a flag (or vice versa) fails here.
func TestFlagsCoverScenario(t *testing.T) {
	sc := sim.DefaultScenario()
	fs := flag.NewFlagSet("pramsim", flag.ContinueOnError)
	mapping := scenarioFlags(fs, &sc)

	// Every registered flag appears in the mapping and vice versa.
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	for name := range mapping {
		if !registered[name] {
			t.Errorf("mapping names flag -%s, but scenarioFlags never registers it", name)
		}
	}
	for name := range registered {
		if _, ok := mapping[name]; !ok {
			t.Errorf("flag -%s registered but missing from the flag → field mapping", name)
		}
	}

	// Every Scenario JSON field is covered by exactly one flag.
	fields := map[string]bool{}
	rt := reflect.TypeOf(sim.Scenario{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if tag == "" || tag == "-" {
			t.Fatalf("Scenario field %s has no JSON tag", rt.Field(i).Name)
		}
		fields[tag] = true
	}
	seen := map[string]string{}
	for flagName, field := range mapping {
		if !fields[field] {
			t.Errorf("flag -%s maps to %q, which is not a Scenario JSON field", flagName, field)
		}
		if prev, dup := seen[field]; dup {
			t.Errorf("Scenario field %q mapped by both -%s and -%s", field, prev, flagName)
		}
		seen[field] = flagName
	}
	for field := range fields {
		if _, ok := seen[field]; !ok {
			t.Errorf("Scenario field %q has no pramsim flag", field)
		}
	}
}

// TestFlagsOverrideScenarioFile checks the overlay semantics: flags
// registered after loading carry the file's values as defaults, so
// only explicitly-passed flags override.
func TestFlagsOverrideScenarioFile(t *testing.T) {
	sc := sim.DefaultScenario()
	sc.Program = "matvec" // as if loaded from -scenario
	sc.Size = 8
	fs := flag.NewFlagSet("pramsim", flag.ContinueOnError)
	scenarioFlags(fs, &sc)
	if err := fs.Parse([]string{"-n", "4"}); err != nil {
		t.Fatal(err)
	}
	if sc.Program != "matvec" {
		t.Errorf("untouched field overwritten: program = %q", sc.Program)
	}
	if sc.Size != 4 {
		t.Errorf("flag override lost: size = %d, want 4", sc.Size)
	}
}

func TestScanScenarioPath(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "a.json"}, "a.json"},
		{[]string{"-scenario=a.json"}, "a.json"},
		{[]string{"--scenario", "a.json", "-n", "4"}, "a.json"},
		{[]string{"-n", "4", "--scenario=b.json"}, "b.json"},
		{[]string{"-n", "4"}, ""},
		{[]string{"--", "-scenario", "a.json"}, ""},
	}
	for _, tc := range cases {
		if got := scanScenarioPath(tc.args); got != tc.want {
			t.Errorf("scanScenarioPath(%v) = %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestRenderCountsDegradedOpsOnce renders a run with 30% dead nodes. An
// op from a dead origin is also listed as unrecoverable, so the printed
// degraded count must stay within the op count and cover every
// dead-origin op.
func TestRenderCountsDegradedOpsOnce(t *testing.T) {
	sc := sim.DefaultScenario()
	sc.Backend = sim.BackendMesh
	sc.Faults = "rand:node=0.3,seed=2"
	res, err := serve.NewRunner().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	render(&buf, res)
	var line string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "degradation:") {
			line = l
		}
	}
	var degraded, ops, dead, lost int
	if n, err := fmt.Sscanf(line, "degradation: %d/%d ops degraded (%d from dead origins), %d lost packets",
		&degraded, &ops, &dead, &lost); n != 4 {
		t.Fatalf("degradation line %q: parsed %d fields: %v", line, n, err)
	}
	if degraded > ops {
		t.Errorf("%d/%d ops degraded: more degraded ops than ops", degraded, ops)
	}
	if dead == 0 || dead > degraded {
		t.Errorf("%d dead-origin ops vs %d degraded: want 0 < dead ≤ degraded", dead, degraded)
	}
}
