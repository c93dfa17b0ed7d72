package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := f.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, m)
		}
	}
}

// smoke runs the minimum number of rounds of a workload, untraced and
// traced, and checks the result line carries exactly the contracted
// metrics.
func smoke(t *testing.T, workload string, seed uint64) {
	for _, traced := range []bool{false, true} {
		cfg := config{workload: workload, seed: seed, traced: traced,
			traceOut: filepath.Join(t.TempDir(), "trace.json")}
		var out strings.Builder
		res, err := run(cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s",
				traced, res.Correct, res.Attempted, res.Failed, out.String())
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
			}
		}
		if traced {
			raw, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("trace export: %v, %d events", err, len(doc.TraceEvents))
			}
		}
	}
}

func TestSmokeWireFiles(t *testing.T) { smoke(t, "wire-files", 2) }

func TestSmokeClusterSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 1.2M requests per round")
	}
	smoke(t, "cluster-steady", 2)
}

func TestSmokeChaosChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 60K requests per round with ~700 forks")
	}
	smoke(t, "chaos-churn", 2)
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run(config{workload: "nope"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
