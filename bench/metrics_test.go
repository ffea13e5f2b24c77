package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver and later
// issues read; it must name exactly the workloads and metrics this
// program reports, with the same units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads = %v, want %v", names, workloadNames())
	}
	check := func(section string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the program reports %d", section, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", section, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if (g.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %t, want %t", section, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", section, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
