package main

import (
	"strings"
	"testing"
)

func res(name string, allocs float64, metrics map[string]float64) Result {
	return Result{Name: name, Iterations: 1, AllocsOp: allocs, Metrics: metrics}
}

func TestGatePasses(t *testing.T) {
	base := []Result{
		res("BenchmarkCampaign/serial", 2781, map[string]float64{"gridTrials/s": 328}),
		res("BenchmarkPipelineHot/R1/RUU64", 124, map[string]float64{"simCycles/s": 1.2e6}),
	}
	cur := []Result{
		res("BenchmarkCampaign/serial", 2800, map[string]float64{"gridTrials/s": 310}), // within 10%
		res("BenchmarkPipelineHot/R1/RUU64", 124, map[string]float64{"simCycles/s": 1.3e6}),
	}
	regs, skipped, compared := gate(cur, base, 0.10, 0.10)
	if len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}
	if len(skipped) != 0 {
		t.Errorf("unexpected skips: %v", skipped)
	}
	if compared != 4 {
		t.Errorf("compared %d, want 4", compared)
	}
}

func TestGateCatchesAllocRegression(t *testing.T) {
	base := []Result{res("BenchmarkPipelineHot/R1/RUU64", 124, nil)}
	cur := []Result{res("BenchmarkPipelineHot/R1/RUU64", 1500, nil)}
	regs, _, _ := gate(cur, base, 0.10, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Errorf("alloc regression not caught: %v", regs)
	}
}

func TestGateCatchesThroughputRegression(t *testing.T) {
	base := []Result{res("BenchmarkCampaign/serial", 0, map[string]float64{"gridTrials/s": 328})}
	cur := []Result{res("BenchmarkCampaign/serial", 0, map[string]float64{"gridTrials/s": 175})}
	regs, _, _ := gate(cur, base, 0.10, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "gridTrials/s") {
		t.Errorf("throughput regression not caught: %v", regs)
	}
	// A looser threshold admits the same drop.
	regs, _, _ = gate(cur, base, 0.10, 0.60)
	if len(regs) != 0 {
		t.Errorf("60%% threshold should admit a 47%% drop: %v", regs)
	}
}

func TestGateIgnoresNonThroughputMetricsAndNewBenchmarks(t *testing.T) {
	base := []Result{res("BenchmarkFig5/gcc", 0, map[string]float64{"ipc": 2.5})}
	cur := []Result{
		res("BenchmarkFig5/gcc", 0, map[string]float64{"ipc": 0.1}), // paper metric, not perf
		res("BenchmarkBrandNew", 9999, nil),
	}
	regs, skipped, compared := gate(cur, base, 0.10, 0.10)
	if len(regs) != 0 {
		t.Errorf("gated a non-throughput metric or a new benchmark: %v", regs)
	}
	if len(skipped) != 1 || skipped[0] != "BenchmarkBrandNew" {
		t.Errorf("skipped = %v, want [BenchmarkBrandNew]", skipped)
	}
	if compared != 0 {
		t.Errorf("compared %d, want 0", compared)
	}
}

func TestGateAllocSlackForTinyCounts(t *testing.T) {
	// 3 -> 5 allocs is +67% but within the +2 absolute slack; tiny
	// counts must not flap the gate.
	base := []Result{res("BenchmarkX", 3, nil)}
	cur := []Result{res("BenchmarkX", 5, nil)}
	if regs, _, _ := gate(cur, base, 0.10, 0.10); len(regs) != 0 {
		t.Errorf("tiny alloc delta tripped the gate: %v", regs)
	}
	cur = []Result{res("BenchmarkX", 6, nil)}
	if regs, _, _ := gate(cur, base, 0.10, 0.10); len(regs) != 1 {
		t.Errorf("6 allocs vs baseline 3 should trip the gate: %v", regs)
	}
}

func TestCheckFailsOnMissingBaselineBenchmarks(t *testing.T) {
	base := []Result{
		res("BenchmarkPipelineHot/R1/RUU64", 124, nil),
		res("BenchmarkPipelineHot/R3/RUU256", 150, nil),
		res("BenchmarkSimulatorThroughput", 124, nil),
	}
	cur := []Result{res("BenchmarkPipelineHot/R1/RUU64", 124, nil)}
	failures, _, compared := check(cur, base, 0.10, 0.10)
	if compared != 1 {
		t.Errorf("compared %d, want 1", compared)
	}
	if len(failures) != 1 ||
		!strings.Contains(failures[0], "BenchmarkPipelineHot/R3/RUU256") ||
		!strings.Contains(failures[0], "BenchmarkSimulatorThroughput") {
		t.Errorf("failures = %v, want one naming both missing benchmarks", failures)
	}
	// The full set passes.
	if failures, _, _ := check(base, base, 0.10, 0.10); len(failures) != 0 {
		t.Errorf("identical run failed the gate: %v", failures)
	}
}

func TestCheckFailsWithZeroComparisons(t *testing.T) {
	// Nothing gateable on either side: no allocations, no */s metric.
	base := []Result{res("BenchmarkFig5/gcc", 0, map[string]float64{"ipc": 2.5})}
	cur := []Result{res("BenchmarkFig5/gcc", 0, map[string]float64{"ipc": 2.5})}
	failures, _, compared := check(cur, base, 0.10, 0.10)
	if compared != 0 || len(failures) != 1 || !strings.Contains(failures[0], "no comparisons") {
		t.Errorf("compared %d, failures %v; want a zero-comparison failure", compared, failures)
	}
	// A run sharing no benchmark with the baseline fails both ways.
	failures, skipped, _ := check([]Result{res("BenchmarkOther", 5, nil)}, base, 0.10, 0.10)
	if len(failures) != 2 || len(skipped) != 1 {
		t.Errorf("failures %v, skipped %v; want missing + zero-comparison failures", failures, skipped)
	}
}

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkCampaign/parallel-8   12   196372755 ns/op   170359959 B/op   331577 allocs/op   168.0 gridTrials/s")
	if !ok {
		t.Fatal("parseLine rejected a valid line")
	}
	if r.Name != "BenchmarkCampaign/parallel" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", r.Name)
	}
	if r.AllocsOp != 331577 || r.NsPerOp != 196372755 || r.BytesPerOp != 170359959 {
		t.Errorf("parsed fields wrong: %+v", r)
	}
	if r.Metrics["gridTrials/s"] != 168.0 {
		t.Errorf("custom metric wrong: %+v", r.Metrics)
	}
	if _, ok := parseLine("not a benchmark line"); ok {
		t.Error("parseLine accepted garbage")
	}
}
