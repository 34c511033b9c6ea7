package ftsim

import (
	"context"

	"repro/internal/cpu"
	"repro/internal/prog"
)

// build loads a simulator machine for program p under c, through
// cpuConfig: the one assembly step Machine.Load, RunPooled and Restore
// use.
func (c Config) build(p *prog.Program) (*cpu.Machine, error) {
	return c.rebuild(nil, p)
}

// rebuild resets m in place for a new run of p under c, reusing its
// allocated state and fault injector the way RunPooled does; a nil m
// builds fresh.
func (c Config) rebuild(m *cpu.Machine, p *prog.Program) (*cpu.Machine, error) {
	if m == nil {
		m = &cpu.Machine{}
	}
	if err := m.Reset(c.cpuConfig(m.Injector()), p); err != nil {
		return nil, err
	}
	return m, nil
}

// restore re-initialises m (nil allocates a fresh machine) from a
// snapshot taken under an equivalent configuration.
func (c Config) restore(m *cpu.Machine, data []byte) (*cpu.Machine, error) {
	if m == nil {
		m = &cpu.Machine{}
	}
	if err := m.Restore(c.cpuConfig(m.Injector()), data); err != nil {
		return nil, err
	}
	return m, nil
}

// run builds and runs the machine to completion (program halt or run
// limits).
func (c Config) run(p *prog.Program) (*cpu.Stats, error) {
	m, err := c.build(p)
	if err != nil {
		return nil, err
	}
	return m.RunContext(context.Background())
}
