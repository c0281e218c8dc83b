package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors the six keys BENCHMARK.json is allowed.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the tables in this package are two copies of one
// definition; the driver reads the first, the harness the second.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract allows exactly 6", len(keys))
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, harness runSeconds = %d", b.RunSeconds, runSeconds)
	}

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads = %v, harness has %v", names, workloadNames())
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, harness has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, harness has %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, want)
		}
		if seen[m.Name] {
			t.Errorf("per_layer name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
}
