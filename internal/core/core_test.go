package core_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/ftsim"
)

// The machine-level tests drive the paper's machines through the ftsim
// facade, which assembles the checkers of this package into each
// model: the same path every product run takes.

// mixedSrc is a loop exercising ALU ops, multiplies, memory traffic and
// data-dependent branches — enough surface for fault injection to hit
// every instruction class. Its one parameter is the iteration count.
const mixedSrc = `
	.data
buf:	.space 256
	.text
	li   r1, %d
	li   r2, 0xACE1        ; LCG state
	la   r9, buf
	li   r10, 0            ; checksum
loop:	li   r3, 1103515245
	mul  r2, r2, r3
	addi r2, r2, 12345
	srli r4, r2, 13
	andi r4, r4, 31        ; index 0..31
	slli r5, r4, 3         ; byte offset
	add  r5, r5, r9        ; address
	sd   r2, 0(r5)         ; store state
	ld   r6, 0(r5)         ; reload (often forwarded)
	xor  r10, r10, r6      ; fold into checksum
	andi r7, r2, 1
	beq  r7, r0, even
	addi r10, r10, 7
even:	addi r1, r1, -1
	bne  r1, r0, loop
	out  r10
	halt
`

func mixedProgram(t *testing.T, iters int64) *ftsim.Program {
	t.Helper()
	p, err := ftsim.Assemble("mixed", fmt.Sprintf(mixedSrc, iters))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reference runs the program on the functional simulator.
func reference(t *testing.T, p *ftsim.Program) []uint64 {
	t.Helper()
	ref, err := p.Reference(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Halted {
		t.Fatalf("%s: reference run did not halt", p.Name())
	}
	return ref.Output
}

// simulate builds a fresh machine for c and runs p to completion
// (program halt or run limits).
func simulate(c ftsim.Config, p *ftsim.Program) (*ftsim.Stats, error) {
	m, err := ftsim.NewFromConfig(c)
	if err != nil {
		return nil, err
	}
	return m.Run(context.Background(), p)
}

func runCfg(t *testing.T, p *ftsim.Program, c ftsim.Config) *ftsim.Stats {
	t.Helper()
	c.Oracle = true
	if c.MaxCycles == 0 {
		c.MaxCycles = 20_000_000
	}
	st, err := simulate(c, p)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFaultFreeModesAgree(t *testing.T) {
	p := mixedProgram(t, 400)
	want := reference(t, p)
	for _, tc := range []struct {
		name string
		cfg  ftsim.Config
	}{
		{"SS-1", ftsim.ModelSS1.Config()},
		{"SS-2", ftsim.ModelSS2.Config()},
		{"SS-3", ftsim.ModelSS3.Config()},
		{"SS-3-rewind", ftsim.ModelSS3Rewind.Config()},
		{"Static-2", ftsim.ModelStatic2.Config()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := runCfg(t, p, tc.cfg)
			if !st.Halted {
				t.Fatalf("did not halt: %s", st.Summary())
			}
			if st.EscapedFaults != 0 {
				t.Fatalf("oracle divergence: %s", st.Summary())
			}
			if len(st.Output) != len(want) || st.Output[0] != want[0] {
				t.Fatalf("output %v, want %v", st.Output, want)
			}
			if st.FaultsDetected != 0 || st.FaultRewinds != 0 {
				t.Errorf("spurious detections without injection: %s", st.Summary())
			}
		})
	}
}

func TestRedundancyCostsThroughput(t *testing.T) {
	p := mixedProgram(t, 600)
	ss1 := runCfg(t, p, ftsim.ModelSS1.Config())
	ss2 := runCfg(t, p, ftsim.ModelSS2.Config())
	ss3 := runCfg(t, p, ftsim.ModelSS3.Config())
	if ss2.IPC() >= ss1.IPC() {
		t.Errorf("SS-2 IPC %.3f >= SS-1 IPC %.3f", ss2.IPC(), ss1.IPC())
	}
	if ss3.IPC() >= ss2.IPC() {
		t.Errorf("SS-3 IPC %.3f >= SS-2 IPC %.3f", ss3.IPC(), ss2.IPC())
	}
	// The paper's Section 4 bound: IPC_R >= IPC_1/R (redundant threads
	// reuse idle capacity, never less than a 1/R share).
	if ss2.IPC() < ss1.IPC()/2*0.9 {
		t.Errorf("SS-2 IPC %.3f below IPC_1/2 = %.3f", ss2.IPC(), ss1.IPC()/2)
	}
}

// TestFaultInjectionSS2 is the core claim: with 2-way redundancy, every
// injected fault is either masked (no architectural effect) or detected
// and recovered; committed state never diverges from the oracle.
func TestFaultInjectionSS2(t *testing.T) {
	p := mixedProgram(t, 400)
	want := reference(t, p)
	for _, rate := range []float64{1e-4, 1e-3, 5e-3} {
		cfg := ftsim.ModelSS2.Config()
		cfg.Fault = ftsim.FaultConfig{Rate: rate, Seed: 42, Targets: ftsim.AllFaultTargets()}
		st := runCfg(t, p, cfg)
		if !st.Halted {
			t.Fatalf("rate %g: did not halt: %s", rate, st.Summary())
		}
		if st.EscapedFaults != 0 {
			t.Fatalf("rate %g: %d faults escaped detection: %s", rate, st.EscapedFaults, st.Summary())
		}
		if st.Output[0] != want[0] {
			t.Fatalf("rate %g: corrupted output %#x, want %#x", rate, st.Output[0], want[0])
		}
		if st.Fault.Injected == 0 {
			t.Fatalf("rate %g: no faults injected", rate)
		}
		if rate >= 1e-3 && st.FaultsDetected == 0 {
			t.Errorf("rate %g: injected %d faults but detected none", rate, st.Fault.Injected)
		}
	}
}

// TestFaultInjectionSS3Majority: with majority election, most single-copy
// faults commit without a rewind.
func TestFaultInjectionSS3Majority(t *testing.T) {
	p := mixedProgram(t, 400)
	want := reference(t, p)
	cfg := ftsim.ModelSS3.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 2e-3, Seed: 7, Targets: ftsim.AllFaultTargets()}
	st := runCfg(t, p, cfg)
	if st.EscapedFaults != 0 {
		t.Fatalf("escapes under majority election: %s", st.Summary())
	}
	if st.Output[0] != want[0] {
		t.Fatalf("output %#x, want %#x", st.Output[0], want[0])
	}
	if st.MajorityCommits == 0 {
		t.Error("no majority commits at this rate")
	}
	// Rewinds should be much rarer than detections: only multi-copy
	// corruption of one group forces a rewind.
	if st.FaultRewinds > st.FaultsDetected/2 {
		t.Errorf("majority design rewound %d/%d detections", st.FaultRewinds, st.FaultsDetected)
	}

	// The rewind-only R=3 design recovers everything too, but by rewinding.
	cfgR := ftsim.ModelSS3Rewind.Config()
	cfgR.Fault = ftsim.FaultConfig{Rate: 2e-3, Seed: 7, Targets: ftsim.AllFaultTargets()}
	stR := runCfg(t, p, cfgR)
	if stR.EscapedFaults != 0 || stR.Output[0] != want[0] {
		t.Fatalf("SS-3-rewind corrupted state: %s", stR.Summary())
	}
	if stR.MajorityCommits != 0 {
		t.Error("rewind-only design reported majority commits")
	}
}

// TestUnprotectedBaselineEscapes: SS-1 has no detection, so injected
// faults corrupt architectural state (observed via the oracle).
func TestUnprotectedBaselineEscapes(t *testing.T) {
	p := mixedProgram(t, 400)
	cfg := ftsim.ModelSS1.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 5e-3, Seed: 11}
	// A corrupted branch can strand execution on a nop sled, so bound the
	// run; the escape is observed long before the limit.
	cfg.MaxCycles = 300_000
	st := runCfg(t, p, cfg)
	if st.EscapedFaults == 0 {
		t.Errorf("SS-1 absorbed %d faults without architectural damage", st.Fault.Injected)
	}
}

// TestPerTargetDetection injects each fault class alone and requires
// detection plus full recovery.
func TestPerTargetDetection(t *testing.T) {
	p := mixedProgram(t, 300)
	want := reference(t, p)
	// Subtests carry the simulator's names for the fault classes.
	names := map[ftsim.FaultTarget]string{ftsim.FaultResident: "rob-resident"}
	for _, tgt := range ftsim.AllFaultTargets() {
		t.Run(cmp.Or(names[tgt], string(tgt)), func(t *testing.T) {
			cfg := ftsim.ModelSS2.Config()
			cfg.Fault = ftsim.FaultConfig{Rate: 2e-3, Seed: 5, Targets: []ftsim.FaultTarget{tgt}}
			st := runCfg(t, p, cfg)
			if st.EscapedFaults != 0 {
				t.Fatalf("target %v escaped: %s", tgt, st.Summary())
			}
			if st.Output[0] != want[0] {
				t.Fatalf("target %v corrupted output", tgt)
			}
			if st.Fault.Injected > 3 && st.FaultsDetected == 0 && tgt != ftsim.FaultBranch {
				t.Errorf("target %v: injected %d, detected none", tgt, st.Fault.Injected)
			}
		})
	}
}

// TestRecoveryPenaltyMagnitude: the paper reports rewind recovery costs
// on the order of tens of cycles (about 30 for fpppp).
func TestRecoveryPenaltyMagnitude(t *testing.T) {
	p := mixedProgram(t, 2000)
	cfg := ftsim.ModelSS2.Config()
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-3, Seed: 3, Targets: ftsim.AllFaultTargets()}
	st := runCfg(t, p, cfg)
	if st.FaultRewinds < 5 {
		t.Skipf("only %d rewinds observed", st.FaultRewinds)
	}
	pen := st.AvgRecoveryPenalty()
	if pen < 3 || pen > 200 {
		t.Errorf("average recovery penalty %.1f cycles, expected tens", pen)
	}
}

func TestCoScheduleStillCorrect(t *testing.T) {
	p := mixedProgram(t, 300)
	want := reference(t, p)
	cfg := ftsim.ModelSS2.Config()
	cfg.CoSchedule = true
	st := runCfg(t, p, cfg)
	if st.Output[0] != want[0] || st.EscapedFaults != 0 {
		t.Fatalf("co-scheduled run corrupted: %s", st.Summary())
	}
}

func TestMajorityThresholdFour(t *testing.T) {
	// R=4 with a strict threshold of 4 behaves like rewind-on-any-
	// mismatch; with threshold 3 it can elect.
	p := mixedProgram(t, 200)
	want := reference(t, p)
	cfg := ftsim.ModelSS1.Config()
	cfg.R, cfg.Majority, cfg.MajorityThreshold = 4, true, 3
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-3, Seed: 9, Targets: ftsim.AllFaultTargets()}
	st := runCfg(t, p, cfg)
	if st.EscapedFaults != 0 || st.Output[0] != want[0] {
		t.Fatalf("R=4 corrupted: %s", st.Summary())
	}
}

func TestPresetNames(t *testing.T) {
	cases := map[string]ftsim.Config{
		"SS-1": ftsim.ModelSS1.Config(), "SS-2": ftsim.ModelSS2.Config(), "SS-3": ftsim.ModelSS3.Config(),
		"SS-3-rewind": ftsim.ModelSS3Rewind.Config(), "Static-2": ftsim.ModelStatic2.Config(),
	}
	for want, cfg := range cases {
		if cfg.Name != want {
			t.Errorf("preset name %q, want %q", cfg.Name, want)
		}
	}
	if ftsim.ModelSS2.Config().R != 2 || ftsim.ModelSS3.Config().R != 3 || !ftsim.ModelSS3.Config().Majority ||
		ftsim.ModelSS3Rewind.Config().Majority {
		t.Error("preset redundancy misconfigured")
	}
	if static2 := ftsim.ModelStatic2.Config().Pipeline; static2.RUUSize != 64 || static2.FPMult != 1 {
		t.Error("Static-2 resources misconfigured")
	}
}

// TestPersistentFaultMasking reproduces the Section 2.2 discussion: a
// hard stuck-bit fault in a shared functional unit corrupts redundant
// copies identically, so plain replication cannot see it — but rotating
// the copies' operands (the cited Patel & Fung transform) makes the
// corruption land on different result bits and the commit check exposes
// it.
func TestPersistentFaultMasking(t *testing.T) {
	// A XOR-heavy loop so the damaged logic slice is exercised densely.
	p, err := ftsim.Assemble("stuck", `
	li   r1, 5000
	li64 r2, 0x0123456789ABCDEF
	li64 r3, 0x1111222233334444
loop:	xor  r2, r2, r3
	xor  r3, r3, r2
	addi r1, r1, -1
	bne  r1, r0, loop
	out  r2
	halt
`)
	if err != nil {
		t.Fatal(err)
	}

	run := func(transform bool) *ftsim.Stats {
		cfg := ftsim.ModelSS2.Config()
		cfg.Pipeline.IntALU = 1 // force both copies through the damaged unit
		cfg.Persistent = &ftsim.PersistentFault{Pool: "int-alu", Unit: 0, Bit: 17}
		cfg.TransformOperands = transform
		cfg.Oracle = true
		cfg.MaxCycles = 400_000
		st, err := simulate(cfg, p)
		// A permanent fault under detect-and-rewind livelocks at the
		// first affected instruction: rewinding re-executes into the
		// same damage. The simulator reports that as a deadlock, which
		// is the honest outcome — detection worked, recovery cannot.
		if err != nil && !errors.Is(err, ftsim.ErrDeadlock) {
			t.Fatal(err)
		}
		return st
	}

	// Without the transform the two copies corrupt identically: the
	// cross-check passes and wrong values commit (silent corruption).
	plain := run(false)
	if plain.EscapedFaults == 0 {
		t.Errorf("identical persistent corruption was somehow detected: %s", plain.Summary())
	}

	// With rotated operands the corruption is exposed at commit. The
	// fault is permanent, so recovery cannot make progress past the first
	// affected instruction — but nothing corrupt ever commits.
	hardened := run(true)
	if hardened.FaultsDetected == 0 {
		t.Errorf("transform failed to expose the stuck bit: %s", hardened.Summary())
	}
	if hardened.EscapedFaults != 0 {
		t.Errorf("corrupt state committed despite detection: %s", hardened.Summary())
	}
}

// TestPersistentFaultCleanUnit: a stuck bit in a unit the copies avoid
// (co-scheduling on a 4-ALU machine) is survivable for R=2 because the
// damaged copy always disagrees with the clean one and rewind re-executes
// — the same detect-and-retry loop, but with forward progress whenever
// the copies land on clean units.
func TestPersistentTransformCleanRun(t *testing.T) {
	p := mixedProgram(t, 100)
	want := reference(t, p)
	// No persistent fault: the transform must be semantically invisible.
	cfg := ftsim.ModelSS2.Config()
	cfg.TransformOperands = true
	st := runCfg(t, p, cfg)
	if st.EscapedFaults != 0 || st.FaultsDetected != 0 {
		t.Fatalf("transform alone caused detections: %s", st.Summary())
	}
	if st.Output[0] != want[0] {
		t.Fatalf("transform changed results: %#x vs %#x", st.Output[0], want[0])
	}
}
