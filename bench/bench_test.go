package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smoke shrinks a workload to a 1.5 MiB model and the fewest ops that
// still restore every unit.
func smoke(w workload) workload {
	w.shape.spec = tinySpec
	w.shape.restoreEvery = 2
	return w
}

func checkRun(t *testing.T, m *metrics, attempted, failed int, err error, nonzero bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if attempted < 1 || failed != 0 {
		t.Errorf("attempted %d, failed %d", attempted, failed)
	}
	// set() already refused undeclared, repeated and non-finite values.
	for _, e := range m.errs {
		t.Error(e)
	}
	for _, name := range m.missing() {
		t.Errorf("metric never emitted: %s", name)
	}
	if nonzero {
		for name, v := range m.values {
			if v <= 0 {
				t.Errorf("%s = %v, want > 0", name, v)
			}
		}
	}
}

func TestWorkloadsEmitEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 7, seconds: 0.01, outDir: t.TempDir(), setups: 1, twinOps: 8}
			m := newMetrics(endToEnd)
			attempted, failed, err := smoke(w).runEndToEnd(o, m)
			checkRun(t, m, attempted, failed, err, true)
		})
	}
}

func TestTracedRunEmitsEveryLayerMetricAndTiles(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 7, seconds: 0.03, outDir: t.TempDir(), twinOps: 8}
			m := newMetrics(perLayer)
			attempted, failed, err := smoke(w).runTraced(o, m, probeSize{short: true})
			checkRun(t, m, attempted, failed, err, false)
			if tile := m.values["harness.span_tile_ratio"]; tile < 0.95 || tile > 1.05 {
				t.Errorf("top-level spans cover %.3f of an op, want within 5%%", tile)
			}
			if _, err := os.Stat(o.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps the driver's contract file and
// the program's metric and workload tables the same list.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program {%s %s}", i, doc.Workloads[i], w.name, w.why)
		}
	}
}
