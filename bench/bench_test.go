package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifest holds BENCHMARK.json to the driver's limits and to the
// tables the program reports by.
func TestManifest(t *testing.T) {
	m := readManifest(t)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var wls []string
	for _, w := range m.Workloads {
		check(w.Name)
		wls = append(wls, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not of the allowed form", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.10 {
			t.Errorf("metric %s: bound %v, want (0, 0.10]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	var names []string
	for i, w := range workloads() {
		names = append(names, w.name)
		if i < len(m.Workloads) && m.Workloads[i].Why != w.why {
			t.Errorf("workload %s: why differs from the program's", w.name)
		}
	}
	if !reflect.DeepEqual(wls, names) {
		t.Errorf("workloads %v, the program runs %v", wls, names)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEndDefs) || !reflect.DeepEqual(m.PerLayer, perLayerDefs()) {
		// The program's tables are the source; the log below is the file
		// they define.
		m.EndToEnd, m.PerLayer = endToEndDefs, perLayerDefs()
		want, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Errorf("end_to_end or per_layer differ from the program's tables; BENCHMARK.json should be:\n%s", want)
	}
}

// TestSmoke runs every workload at a fiftieth of its size for two
// measured rounds, one traced, and checks that each result line carries
// exactly the metrics BENCHMARK.json names, with their units, that
// every output was verified, and that set-up generated no key.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if _, err := loadKeys(); err != nil {
		t.Fatalf("key fixture: %v", err)
	}
	dir := t.TempDir()
	for _, wl := range workloads() {
		res, err := runWorkload(wl, runOpts{seed: 7, trace: true, scale: 0.02, rounds: 2, stateRoot: dir, outDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", wl.name, res.Correct, res.Failed, res.Attempted, res.Failures)
		}
		// Generating one RSA-2048 key takes longer than this.
		if s := res.EndToEnd["setup_s"]; s <= 0 || s > 1 {
			t.Errorf("%s: setup_s %v, want (0, 1]", wl.name, s)
		}
		for trace, defs := range map[bool][]metricDef{false: m.EndToEnd, true: m.PerLayer} {
			l := resultLine(res, trace)
			if len(l.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(l.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := l.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.name, trace, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s: metric %s in %q, want %q", wl.name, d.Name, v.Unit, d.Unit)
				} else if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", wl.name, d.Name, v.Value)
				}
			}
		}
		if wl.topo.replicas == 1 {
			for _, k := range []string{"replica.quorum_wait_us", "replica.replicate_calls_per_op", "replica.acks_per_append"} {
				if v := res.PerLayer[k]; v != 0 {
					t.Errorf("%s: %s = %v on an unreplicated workload", wl.name, k, v)
				}
			}
		}
		if _, err := os.Stat(dir + "/trace-" + wl.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", wl.name, err)
		}
	}
}
