package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyRun(t *testing.T, workload string, trace bool, control string) *report {
	t.Helper()
	o := options{workload: workload, seed: defaultSeed, seconds: 0.3, trace: trace,
		tiny: true, dir: t.TempDir(), control: control}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := workloads[workload](ctx, o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestTinyRunsReportEveryMetric runs every workload at smoke size in
// both modes: the outputs must check out, and the metrics must be
// exactly the ones BENCHMARK.json names, with its units.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w.Name, trace, "")
			if res := rep.result(); !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, trace, res.Failed, res.Attempted, rep.problems)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			// Every workload's trials run RunPooled around Session.Run,
			// so both layers must hold self time.
			for _, name := range []string{"trace.self_frac.ftsim", "trace.self_frac.cpu"} {
				if trace && rep.metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, name, rep.metrics[name].Value)
				}
			}
		}
	}
}

// TestNegativeControls plants one defect per check; each must show as
// failed operations and a lower ok_frac.
func TestNegativeControls(t *testing.T) {
	for _, tc := range []struct{ workload, control string }{
		{"fault-campaign", controlCorruptProjection},
		{"sim-window", controlWrongDigest},
		{"sharded-service", controlDropShard},
	} {
		rep := tinyRun(t, tc.workload, false, tc.control)
		res := rep.result()
		if res.Failed == 0 || res.Correct || rep.metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s with %s: failed=%d correct=%v ok_frac=%v; want the check to fail",
				tc.workload, tc.control, res.Failed, res.Correct, rep.metrics["ok_frac"].Value)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	root := tr.add(0, "job-0", layerClient, "job", at(0), at(100))
	// Overlapping children cover [10, 60) once; the one past the end is
	// clipped to [90, 100).
	tr.add(root, "job-0", layerCPU, "a", at(10), at(50))
	tr.add(root, "job-0", layerCPU, "b", at(30), at(60))
	tr.add(root, "job-0", layerServer, "c", at(90), at(120))
	tr.add(0, "probe", layerFtsim, "skipped", at(0), at(5))
	got := tr.selfTimes(func(trace string) bool { return trace == "job-0" })
	want := map[string]time.Duration{
		layerClient: 40 * time.Millisecond,
		layerCPU:    70 * time.Millisecond,
		layerServer: 30 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s self time %v, want %v", l, got[l], d)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := tail(xs, 95)
	if beyond != 10 || v <= 190 || v >= 191 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190.05 with 10", v, beyond)
	}
}

func TestCalibrationScale(t *testing.T) {
	c := newCalibrator()
	if got := c.scale(); got != 1 {
		t.Errorf("scale without bursts = %v, want 1", got)
	}
	c.burst()
	c.tick() // within calEvery of the burst: no second burst
	if len(c.rates) != 1 || c.rates[0] <= 0 {
		t.Fatalf("rates after one burst = %v, want one positive rate", c.rates)
	}
	// One stray slow or fast burst does not move the median.
	c.rates = []float64{1, 1, 0.25, 1, 4}
	for i := range c.rates {
		c.rates[i] *= calRefRate
	}
	if got := c.scale(); got != 1 {
		t.Errorf("scale = %v, want 1", got)
	}
}

func TestQuieterJobs(t *testing.T) {
	jobs := func(kept ...float64) *timings {
		tm := &timings{}
		for _, k := range kept {
			tm.jobs = append(tm.jobs, jobSample{kept: k})
		}
		return tm
	}
	for _, tc := range []struct {
		kept []float64
		want int
	}{
		{[]float64{1, 1, 0.98, 0.9}, 3},           // all but the stolen one
		{[]float64{0.8, 0.9, 0.95, 0.97, 0.7}, 3}, // most stolen: the quieter half
		{[]float64{1, 1, 1}, 3},
	} {
		if got := len(jobs(tc.kept...).quieter()); got != tc.want {
			t.Errorf("quieter of %v kept %d jobs, want %d", tc.kept, got, tc.want)
		}
	}
}
