package core_test

import (
	"testing"

	"repro/ftsim"
)

// TestAllWorkloadsOracleClean runs every Table 2 benchmark on SS-2 with
// the in-order oracle enabled: the committed stream must match the
// functional semantics instruction for instruction, with and without
// fault injection. This is the broadest end-to-end invariant in the
// suite — it exercises renaming, the LSQ, FP pipelines, divides, branch
// rewinds and the checker on all eleven instruction mixes.
func TestAllWorkloadsOracleClean(t *testing.T) {
	for _, name := range ftsim.Benchmarks() {
		t.Run(name, func(t *testing.T) {
			program, err := ftsim.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, faulty := range []bool{false, true} {
				cfg := ftsim.ModelSS2.Config()
				cfg.Oracle = true
				cfg.MaxInsts = 8_000
				cfg.MaxCycles = 4_000_000
				if faulty {
					cfg.Fault = ftsim.FaultConfig{Rate: 5e-4, Seed: 21, Targets: ftsim.AllFaultTargets()}
				}
				st, err := simulate(cfg, program)
				if err != nil {
					t.Fatalf("faulty=%v: %v", faulty, err)
				}
				if st.EscapedFaults != 0 {
					t.Fatalf("faulty=%v: oracle divergence: %s", faulty, st.Summary())
				}
				if !faulty && st.FaultsDetected != 0 {
					t.Fatalf("spurious detections: %s", st.Summary())
				}
			}
		})
	}
}

// TestStatic2OracleClean: the halved pipeline is a different machine
// shape (narrow widths, single memory port); run the memory-heavy and
// FP-heavy benchmarks through it with the oracle.
func TestStatic2OracleClean(t *testing.T) {
	for _, name := range []string{"gcc", "fpppp", "swim"} {
		program, err := ftsim.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ftsim.ModelStatic2.Config()
		cfg.Oracle = true
		cfg.MaxInsts = 8_000
		cfg.MaxCycles = 4_000_000
		st, err := simulate(cfg, program)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.EscapedFaults != 0 {
			t.Fatalf("%s: oracle divergence: %s", name, st.Summary())
		}
	}
}

// TestStallAccounting: a machine starved of window space reports
// dispatch stalls; one starved of LSQ space reports LSQ stalls.
func TestStallAccounting(t *testing.T) {
	program, err := ftsim.Benchmark("swim") // long FP latencies + memory traffic
	if err != nil {
		t.Fatal(err)
	}

	tiny := ftsim.ModelSS1.Config()
	tiny.Pipeline.RUUSize = 8
	tiny.Pipeline.LSQSize = 8
	tiny.MaxInsts = 5_000
	tiny.MaxCycles = 2_000_000
	st, err := simulate(tiny, program)
	if err != nil {
		t.Fatal(err)
	}
	if st.DispatchRUUFull == 0 {
		t.Errorf("8-entry window reported no RUU-full stalls: %s", st.Summary())
	}

	tinyLSQ := ftsim.ModelSS1.Config()
	tinyLSQ.Pipeline.LSQSize = 2
	tinyLSQ.MaxInsts = 5_000
	tinyLSQ.MaxCycles = 2_000_000
	st2, err := simulate(tinyLSQ, program)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DispatchLSQFull == 0 {
		t.Errorf("2-entry LSQ reported no LSQ-full stalls: %s", st2.Summary())
	}
	// Starved configurations are slower.
	full, err := simulate(func() ftsim.Config {
		c := ftsim.ModelSS1.Config()
		c.MaxInsts = 5_000
		c.MaxCycles = 2_000_000
		return c
	}(), program)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() >= full.IPC() {
		t.Errorf("8-entry window IPC %.3f >= full machine %.3f", st.IPC(), full.IPC())
	}
}
