package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/ftsim"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// simMachine returns the simulator machine behind a facade session.
// The snapshot referee needs it where a single-use Session cannot
// serve: to continue an interrupted donor in place, and to read
// committed registers and memory. Every machine is still built and
// restored by the facade.
func simMachine(s *ftsim.Session) *cpu.Machine {
	return (*cpu.Machine)(unsafe.Pointer(reflect.ValueOf(s).Elem().FieldByName("cm").Pointer()))
}

// interruptedSession loads p on a machine of cfg and runs it until the
// first observation at or after the given cycle, where the run cancels
// itself. The cancellation lands on the run loop's next poll, so the
// interrupted state is a deterministic function of (config, program,
// cycle); the observer never enters the snapshot fingerprint.
func interruptedSession(t *testing.T, cfg ftsim.Config, atCycle uint64, p *ftsim.Program) *ftsim.Session {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := ftsim.NewFromConfig(cfg, ftsim.WithObserveEvery(256),
		ftsim.WithObserver(ftsim.ObserverFunc(func(iv ftsim.Interval) {
			if iv.Cycles >= atCycle {
				cancel()
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v (run too short to interrupt?)", err)
	}
	return s
}

// assertSameArchState compares the committed architectural state of
// two machines: registers, memory image, and halt status.
func assertSameArchState(t *testing.T, a, b *cpu.Machine) {
	t.Helper()
	for r := uint8(0); r < isa.NumRegs; r++ {
		if a.Reg(r) != b.Reg(r) {
			t.Errorf("register %s differs: %#x vs %#x", isa.RegName(r), a.Reg(r), b.Reg(r))
		}
	}
	if !mem.Equal(a.Memory(), b.Memory()) {
		addr, _ := mem.FirstDiff(a.Memory(), b.Memory())
		t.Errorf("memory differs, first at %#x", addr)
	}
	if a.Halted() != b.Halted() {
		t.Errorf("halted %v vs %v", a.Halted(), b.Halted())
	}
}

// TestSnapshotTable2Sweep covers every Table 2 benchmark × R ∈ {1,2,3}
// × fault injection. Donor continuation and restore must agree
// byte-identically, and (because detection and recovery keep the
// committed state clean — EscapedFaults stays 0 for R >= 2) the
// architectural results must equal an uninterrupted run's.
func TestSnapshotTable2Sweep(t *testing.T) {
	models := []struct {
		r     int
		model ftsim.Model
	}{
		{1, ftsim.ModelSS1},
		{2, ftsim.ModelSS2},
		{3, ftsim.ModelSS3},
	}
	benches := ftsim.Benchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	for _, name := range benches {
		program, err := ftsim.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			t.Run(fmt.Sprintf("%s/R%d", name, m.r), func(t *testing.T) {
				cfg := m.model.Config()
				cfg.MaxInsts = 5_000
				cfg.MaxCycles = 2_000_000
				if m.r > 1 {
					cfg.Fault = ftsim.FaultConfig{Rate: 5e-4, Seed: int64(31 + m.r), Targets: ftsim.AllFaultTargets()}
				}
				machine, err := ftsim.NewFromConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}

				donorSession := interruptedSession(t, cfg, 1_000, program)
				restoredSession, err := machine.Restore(donorSession.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				donor, restored := simMachine(donorSession), simMachine(restoredSession)
				donorStats, err := donor.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				restoredStats, err := restoredSession.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(donorStats, restoredStats) {
					t.Fatalf("restored run diverges from donor continuation\ndonor:    %+v\nrestored: %+v",
						donorStats, restoredStats)
				}
				assertSameArchState(t, donor, restored)

				// The snapshot quiesce perturbs microarchitectural timing
				// (it squashes in-flight work, like the paper's recovery
				// does), so cycle counts legitimately differ from an
				// uninterrupted run — but the committed results must not.
				uncutSession, err := machine.Load(program)
				if err != nil {
					t.Fatal(err)
				}
				uncutStats, err := uncutSession.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if donorStats.EscapedFaults == 0 && uncutStats.EscapedFaults == 0 {
					if !reflect.DeepEqual(donorStats.Output, uncutStats.Output) ||
						donorStats.Halted != uncutStats.Halted ||
						donorStats.Committed != uncutStats.Committed {
						t.Errorf("interrupted run's architectural results differ from uninterrupted:\ninterrupted:   committed=%d halted=%v out=%v\nuninterrupted: committed=%d halted=%v out=%v",
							donorStats.Committed, donorStats.Halted, donorStats.Output,
							uncutStats.Committed, uncutStats.Halted, uncutStats.Output)
					}
					assertSameArchState(t, donor, simMachine(uncutSession))
				}
			})
		}
	}
}
