package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestScanVsEventEquivalence is the referee for the event-driven
// scheduling kernel: every Table 2 workload, at every redundancy degree
// the paper evaluates, with fault injection enabled, must produce a
// Stats struct deep-equal to the retained scan-based reference
// scheduler's — same cycle count, same rewinds, same injected-fault
// accounting, same outputs. Any divergence in wakeup order, completion
// order or issue selection shows up here as a stats mismatch.
func TestScanVsEventEquivalence(t *testing.T) {
	type variant struct {
		name    string
		r       int
		cosched bool
		ruu     int // 0: Table 1's 128 entries
	}
	variants := []variant{
		{"R1", 1, false, 0},
		{"R2", 2, false, 0},
		{"R2-cosched", 2, true, 0},
		{"R3", 3, false, 0},
		// A four-word issue bitmap whose 255-entry limit leaves the
		// ring wrapping mid-word.
		{"R3-RUU256", 3, false, 256},
	}
	for _, p := range workload.Table2() {
		p := p
		program, err := p.Build(1 << 32)
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		for _, v := range variants {
			v := v
			t.Run(fmt.Sprintf("%s/%s", p.Name, v.name), func(t *testing.T) {
				run := func(naive bool) (*Machine, *Stats, error) {
					cfg := Baseline()
					cfg.R = v.r
					cfg.CoSchedule = v.cosched
					if v.ruu > 0 {
						cfg.RUUSize = v.ruu
						cfg.LSQSize = v.ruu / 2
					}
					if v.r > 1 {
						cfg.Checker = testChecker{}
						cfg.RUUSize -= cfg.RUUSize % v.r
					}
					// Each run needs its own injector: the RNG stream is
					// consumed during simulation, and its consumption
					// order is part of what equivalence checks.
					cfg.Injector = fault.New(fault.Config{
						Rate:    1e-3,
						Seed:    1234,
						Targets: fault.AllTargets,
					})
					cfg.MaxInsts = 3_000
					cfg.MaxCycles = 2_000_000
					m, err := New(cfg, program)
					if err != nil {
						t.Fatal(err)
					}
					if naive {
						useNaiveScheduler(m)
					}
					st, err := m.Run()
					return m, st, err
				}
				em, est, eerr := run(false)
				nm, nst, nerr := run(true)
				if (eerr == nil) != (nerr == nil) || (eerr != nil && eerr.Error() != nerr.Error()) {
					t.Fatalf("error divergence: event=%v naive=%v", eerr, nerr)
				}
				if !reflect.DeepEqual(est, nst) {
					t.Fatalf("stats diverge:\nevent: %+v\nnaive: %+v", est, nst)
				}
				if !mem.Equal(em.Memory(), nm.Memory()) {
					addr, _ := mem.FirstDiff(em.Memory(), nm.Memory())
					t.Fatalf("committed memory diverges at %#x", addr)
				}
				for r := uint8(1); r < 32; r++ {
					if em.Reg(r) != nm.Reg(r) {
						t.Fatalf("r%d = %#x (event) vs %#x (naive)", r, em.Reg(r), nm.Reg(r))
					}
				}
			})
		}
	}
}

// TestScanVsEventFaultFree pins the no-fault case too: with injection
// disabled the schedulers must also agree cycle-for-cycle, including on
// the window sizes that stress ring wrap-around.
func TestScanVsEventFaultFree(t *testing.T) {
	p, _ := workload.ByName("gcc")
	program, err := p.Build(1 << 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, ruu := range []int{16, 64, 128, 256} {
		ruu := ruu
		t.Run(fmt.Sprintf("RUU%d", ruu), func(t *testing.T) {
			run := func(naive bool) *Stats {
				cfg := Baseline()
				cfg.RUUSize = ruu
				cfg.LSQSize = ruu / 2
				cfg.MaxInsts = 3_000
				cfg.MaxCycles = 2_000_000
				m, err := New(cfg, program)
				if err != nil {
					t.Fatal(err)
				}
				if naive {
					useNaiveScheduler(m)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			est, nst := run(false), run(true)
			if !reflect.DeepEqual(est, nst) {
				t.Fatalf("stats diverge:\nevent: %+v\nnaive: %+v", est, nst)
			}
		})
	}
}
