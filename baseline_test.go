package unikraft

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"unikraft/internal/experiments"
)

// TestBaselineByteIdentity: the simulator is deterministic, so the
// committed BENCH_baseline.json must regenerate cell for cell — +0.0%,
// not merely within compare's throughput tolerance. This is the
// regression gate for refactors: the timer wheel, the parallel shard
// scheduler and the shared fleet recipe may change how results are
// computed, never what they are. The engine experiment itself is
// exempt — its wall/ev-s/speedup cells are host measurements, gated
// separately by ukbench -compare.
func TestBaselineByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating baseline experiments takes minutes")
	}
	raw, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline []*ExperimentResult
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	deterministic := map[string]bool{
		"serve": true, "cluster": true, "chaos": true, "overload": true,
		"snapboot": true, "fileserve": true, "fig12": true, "fig13": true,
		"fig15": true, "fig18": true, "tab4": true, "zerocopy": true,
		"smpscale": true,
	}
	ran := 0
	for _, base := range baseline {
		if !deterministic[base.ID] {
			continue
		}
		ran++
		t.Run(base.ID, func(t *testing.T) {
			cur, err := experiments.Run(experiments.DefaultEnv(), base.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Headers, cur.Headers) {
				t.Fatalf("headers drifted:\nbaseline %v\ncurrent  %v", base.Headers, cur.Headers)
			}
			if len(base.Rows) != len(cur.Rows) {
				t.Fatalf("row count drifted: baseline %d, current %d", len(base.Rows), len(cur.Rows))
			}
			for i := range base.Rows {
				if !reflect.DeepEqual(base.Rows[i], cur.Rows[i]) {
					t.Errorf("row %d drifted:\nbaseline %v\ncurrent  %v", i, base.Rows[i], cur.Rows[i])
				}
			}
		})
	}
	if ran != len(deterministic) {
		t.Errorf("baseline holds %d of the %d byte-identity experiments", ran, len(deterministic))
	}
}
