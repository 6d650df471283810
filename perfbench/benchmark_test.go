package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the workloads and
// metrics the program actually prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, program has %v", names, want)
		}
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}
