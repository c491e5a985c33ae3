package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same runs", base, base, false, 0.1, "no-worse"},
		{"20% faster", base, scale(base, 0.8), false, 0.1, "improved"},
		{"20% slower", base, scale(base, 1.2), false, 0.1, "worse"},
		{"5% slower, within bound", base, scale(base, 1.05), false, 0.1, "no-worse"},
		{"throughput up", base, scale(base, 1.2), true, 0.1, "improved"},
		{"throughput down", base, scale(base, 0.8), true, 0.1, "worse"},
		{"spread wider than bound", []float64{50, 150, 60, 140, 100}, []float64{100, 100, 100, 100, 100}, false, 0.1, "unresolved"},
		{"wide spread, every change run better", []float64{50, 150, 60, 140, 100}, []float64{40, 45, 42, 41, 44}, false, 0.1, "no-worse"},
	} {
		if _, got := verdict(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Eight wins in ten pairs is short of nine tenths.
	a := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	b := []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}
	if won, got := verdict(a, b, false, 0.25); won != 0.8 || got == "improved" {
		t.Errorf("8/10 wins: won %v verdict %s, want 0.8 and not improved", won, got)
	}
}

// BENCHMARK.json at the repository root must describe the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[m.higher]
		if s.Name != m.name || s.Unit != m.unit || s.Better != better || s.Bound != m.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, s, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	// Every per-layer metric counts time, work or waste: lower is better.
	for i, m := range perLayer {
		if s := spec.PerLayer[i]; s.Name != m.name || s.Unit != m.unit || s.Better != "lower" {
			t.Errorf("per-layer %d: %s %s in BENCHMARK.json, %s %s here", i, s.Name, s.Unit, m.name, m.unit)
		}
	}
}
