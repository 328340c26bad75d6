package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type specFile struct {
	Workloads []struct {
		Name        string
		Loop        string
		Connections int
		Rates       struct {
			Scan int `json:"scan_per_s"`
			Get  int `json:"get_per_s"`
		}
		LrukdFlags []string `json:"lrukd_flags"`
		Backend    string
		MainOp     string `json:"main_op"`
		Listed     bool
		HeldBack   string `json:"held_back"`
	}
	EndToEnd map[string]string `json:"end_to_end"`
	Detail   map[string]string
	PerLayer []struct {
		Name  string
		Moves []struct{ Metric, Workload string }
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json, spec.json and the code naming
// the same workloads and metrics, with the same units.
func TestSpecMatchesCode(t *testing.T) {
	var bench benchmarkFile
	var spec specFile
	readJSON(t, "../BENCHMARK.json", &bench)
	readJSON(t, "spec.json", &spec)

	listed := map[string]bool{}
	for _, w := range bench.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
		listed[w.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w := workloads[i]
		if sw.Name != w.name {
			t.Fatalf("spec.json workload %d is %q, the code's %q", i, sw.Name, w.name)
		}
		if sw.Listed != listed[w.name] {
			t.Errorf("%s: spec.json says listed=%v, BENCHMARK.json disagrees", w.name, sw.Listed)
		}
		if !sw.Listed && sw.HeldBack == "" {
			t.Errorf("%s: not in BENCHMARK.json and no held_back reason", w.name)
		}
		loop := "closed"
		if w.scanRate > 0 {
			loop = "open"
		}
		flags := w.lrukdArgs("<fresh directory per start>")[2:] // past -addr
		if sw.Loop != loop || sw.Connections != w.lanes() || sw.Backend != w.backend ||
			sw.Rates.Scan != w.scanRate || sw.Rates.Get != w.getRate ||
			!slices.Equal(sw.LrukdFlags, flags) ||
			sw.MainOp != map[opKind]string{opGet: "GET", opUpdate: "UPDATE", opScan: "SCAN"}[w.mainOp] {
			t.Errorf("%s: spec.json %+v does not match the code %+v (flags %q)", w.name, sw, w, flags)
		}
	}

	if len(bench.EndToEnd) != len(e2eMetrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bench.EndToEnd), len(e2eMetrics))
	}
	for i := range min(len(bench.EndToEnd), len(e2eMetrics)) {
		b, c := bench.EndToEnd[i], e2eMetrics[i]
		if b.Name != c.name || b.Unit != c.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, b.Name, b.Unit, c.name, c.unit)
		}
		if spec.EndToEnd[c.name] == "" {
			t.Errorf("spec.json does not describe end-to-end metric %s", c.name)
		}
	}

	if len(bench.PerLayer) != len(layerMetricUnits) || len(spec.PerLayer) != len(layerMetricUnits) {
		t.Fatalf("per-layer metrics: BENCHMARK.json %d, spec.json %d, code %d",
			len(bench.PerLayer), len(spec.PerLayer), len(layerMetricUnits))
	}
	for i, c := range layerMetricUnits {
		b, s := bench.PerLayer[i], spec.PerLayer[i]
		if b.Name != c.name || b.Unit != c.unit || s.Name != c.name {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], spec.json %s, code %s [%s]", i, b.Name, b.Unit, s.Name, c.name, c.unit)
		}
		for _, mv := range s.Moves {
			detail, ok := strings.CutPrefix(mv.Metric, "detail.")
			if ok && spec.Detail[detail] == "" || !ok && spec.EndToEnd[mv.Metric] == "" {
				t.Errorf("%s moves %q, which is neither an end-to-end nor a detail metric", s.Name, mv.Metric)
			}
			if _, ok := findWorkload(mv.Workload); !ok && mv.Workload != "all" {
				t.Errorf("%s moves a metric on %q, which is no workload", s.Name, mv.Workload)
			}
		}
	}
}
