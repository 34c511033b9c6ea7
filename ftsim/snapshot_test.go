package ftsim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/snap"
	"repro/internal/workload"
)

// interruptRun runs m until the given cycle count (observed at the
// machine's own observation points, so the interruption cycle is
// deterministic) and returns with the run cancelled mid-flight.
func interruptRun(t *testing.T, m *cpu.Machine) {
	t.Helper()
	_, err := m.RunContext(interruptCtx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v (run too short to interrupt?)", err)
	}
}

// interruptCtx is pre-cancelled by the Observe hook installed by
// withInterrupt; see below.
var interruptCtx context.Context

// buildInterrupted builds a machine for cfg armed to cancel its own
// run at the first observation at or after the given cycle. The
// cancellation lands on the run loop's next poll, so the interrupted
// machine state is a deterministic function of (config, program,
// cycle). The hook rides on the assembled cpu.Config the way a
// session's observer does, so it never enters the fingerprint.
func buildInterrupted(cfg Config, atCycle uint64, p *prog.Program) (*cpu.Machine, error) {
	ctx, cancel := context.WithCancel(context.Background())
	interruptCtx = ctx
	cc := cfg.cpuConfig(nil)
	cc.ObserveEvery = 256
	cc.Observe = func(s *cpu.Stats) {
		if s.Cycles >= atCycle {
			cancel()
		}
	}
	return cpu.New(cc, p)
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

// TestSnapshotRestoreContinuesIdentically is the tentpole referee: a
// machine interrupted mid-run, snapshotted, and restored onto a fresh
// machine must continue byte-identically to the donor machine
// continuing in place — same Stats down to the last counter, same
// architectural state. The sweep reuses the reset-equivalence cases:
// every model, fault injection, the oracle, a recovery penalty, and a
// non-baseline window geometry.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	const insts = 8_000
	for _, tc := range resetCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MaxInsts = insts
			cfg.MaxCycles = insts * 100

			donor, err := buildInterrupted(cfg, 2_000, program)
			if err != nil {
				t.Fatal(err)
			}
			interruptRun(t, donor)
			blob := donor.Snapshot()

			restored, err := cfg.restore(nil, blob)
			if err != nil {
				t.Fatal(err)
			}

			donorStats, err := donor.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			restoredStats, err := restored.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(donorStats, restoredStats) {
				t.Errorf("restored run diverges from donor continuation\ndonor:    %+v\nrestored: %+v",
					donorStats, restoredStats)
			}
			assertSameArchState(t, donor, restored)
		})
	}
}

// TestSnapshotOfFreshMachine: snapshotting a machine that has not run
// a cycle and restoring it must reproduce a full run exactly.
func TestSnapshotOfFreshMachine(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ModelSS2.Config()
	cfg.Fault = FaultConfig{Rate: 1e-4, Seed: 7, Targets: AllFaultTargets()}
	cfg.MaxInsts = 4_000
	cfg.MaxCycles = 400_000

	donor, err := cfg.build(program)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := cfg.restore(nil, donor.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := donor.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fresh-snapshot restore diverges:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestRestoreIntoRecycledMachine: Restore must fully overwrite a
// machine that previously ran something else entirely, exactly like
// a rebuild does.
func TestRestoreIntoRecycledMachine(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	swim, _ := workload.ByName("swim")
	progA, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := swim.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ModelSS2.Config()
	cfg.Fault = FaultConfig{Rate: 1e-4, Seed: 5, Targets: AllFaultTargets()}
	cfg.MaxInsts = 6_000
	cfg.MaxCycles = 600_000

	donor, err := buildInterrupted(cfg, 1_500, progA)
	if err != nil {
		t.Fatal(err)
	}
	interruptRun(t, donor)
	blob := donor.Snapshot()

	// The recycled victim: a different model, different program, run to
	// completion.
	other := ModelSS3.Config()
	other.MaxInsts = 3_000
	other.MaxCycles = 300_000
	victim, err := other.build(progB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	restored, err := cfg.restore(victim, blob)
	if err != nil {
		t.Fatal(err)
	}
	donorStats, err := donor.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	restoredStats, err := restored.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(donorStats, restoredStats) {
		t.Errorf("restore into recycled machine diverges\ndonor:    %+v\nrecycled: %+v", donorStats, restoredStats)
	}
}

// TestRestoreUnderLargerBudget: run limits are excluded from the
// fingerprint, so a workload snapshotted under one instruction budget
// resumes under a larger one — the checkpoint/resume use case for
// long workloads.
func TestRestoreUnderLargerBudget(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	small := ModelSS2.Config()
	small.MaxInsts = 2_000
	small.MaxCycles = 200_000
	donor, err := small.build(program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := donor.Snapshot()

	big := small
	big.MaxInsts = 4_000
	big.MaxCycles = 400_000
	resumed, err := big.restore(nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	st, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 4_000 {
		t.Errorf("resumed run committed %d instructions, want 4000", st.Committed)
	}

	// Reference: one uninterrupted-except-snapshot run at the large
	// budget whose snapshot fires at the same committed count.
	ref, err := big.build(program)
	if err != nil {
		t.Fatal(err)
	}
	refHalf := big
	refHalf.MaxInsts = 2_000
	refM, err := refHalf.build(program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refM.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	refResumed, err := big.restore(ref, refM.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := refResumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := st
	if !reflect.DeepEqual(want, got) {
		t.Errorf("budget-raised resume diverges from reference:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestRestoreRejectsMismatch: a snapshot must only restore under a
// configuration with the same fingerprint.
func TestRestoreRejectsMismatch(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ModelSS2.Config()
	cfg.MaxInsts = 1_000
	cfg.MaxCycles = 100_000
	donor, err := cfg.build(program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := donor.Snapshot()

	for _, alt := range []struct {
		name string
		cfg  Config
	}{
		{"different model", func() Config { c := ModelSS3.Config(); c.MaxInsts = 1_000; return c }()},
		{"different geometry", func() Config {
			c := ModelSS2.Config()
			c.Pipeline.RUUSize = 256
			c.MaxInsts = 1_000
			return c
		}()},
		{"different fault seed", func() Config {
			c := ModelSS2.Config()
			c.Fault = FaultConfig{Rate: 1e-4, Seed: 3}
			c.MaxInsts = 1_000
			return c
		}()},
	} {
		if _, err := alt.cfg.restore(nil, blob); !errors.Is(err, cpu.ErrSnapshotMismatch) {
			t.Errorf("%s: Restore returned %v, want ErrSnapshotMismatch", alt.name, err)
		}
	}

	// Same fingerprint, different run limits: accepted.
	bigger := cfg
	bigger.MaxInsts = 2_000
	if _, err := bigger.restore(nil, blob); err != nil {
		t.Errorf("run-limit change rejected: %v", err)
	}
}

// TestRestoreRejectsCorruption: every truncation and any bit flip of
// a valid snapshot must be rejected with a typed error, never
// misapplied or panicking.
func TestRestoreRejectsCorruption(t *testing.T) {
	gcc, _ := workload.ByName("gcc")
	program, err := gcc.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ModelSS2.Config()
	cfg.Fault = FaultConfig{Rate: 1e-3, Seed: 2, Targets: AllFaultTargets()}
	cfg.MaxInsts = 1_000
	cfg.MaxCycles = 100_000
	donor, err := cfg.build(program)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob := donor.Snapshot()

	// Restoring the pristine blob works.
	if _, err := cfg.restore(nil, blob); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Bit flips anywhere are caught by the checksum.
	for _, pos := range []int{0, 7, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x40
		if _, err := cfg.restore(nil, bad); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("bit flip at %d: Restore returned %v, want ErrCorrupt", pos, err)
		}
	}
	// Truncations at a sample of lengths.
	for n := 0; n < len(blob); n += 97 {
		if _, err := cfg.restore(nil, blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}
