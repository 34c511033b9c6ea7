package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/ftsim"
)

// cpuClass is one class of the cpu-layer probe.
type cpuClass struct {
	name   string
	models []ftsim.Model
	ruu    int // 0 keeps the model's window
	rate   float64
}

// cpuClasses split host time per simulated cycle by redundancy, window
// size and the fault path.
var cpuClasses = []cpuClass{
	{"r1-ruu64", []ftsim.Model{ftsim.ModelSS1}, 64, 0},
	{"r1-ruu256", []ftsim.Model{ftsim.ModelSS1}, 256, 0},
	{"r3-ruu64", []ftsim.Model{ftsim.ModelSS3}, 64, 0},
	{"r3-ruu256", []ftsim.Model{ftsim.ModelSS3}, 256, 0},
	{"faulty", []ftsim.Model{ftsim.ModelSS2, ftsim.ModelSS3}, 0, 1e-3},
}

// probeLayers measures the ftsim, cpu and campaign layers on small
// fixed inputs and, when withService is set, the service layers on a
// small cluster, so that every traced run reports every layer. Each
// call is timed on its own, serially, from the benchmark's side of the
// layer boundary.
func probeLayers(ctx context.Context, o options, rep *report, tr *tracer, withService bool) error {
	const trace = "probe"
	insts := uint64(20_000)
	if o.tiny {
		insts = 2_000
	}

	// ftsim: program build, machine construction, load, pooling.
	progs := map[string]*ftsim.Program{}
	var buildMs []float64
	for _, name := range ftsim.Benchmarks() {
		t := time.Now()
		p, err := ftsim.Benchmark(name)
		if err != nil {
			return err
		}
		buildMs = append(buildMs, ms(time.Since(t)))
		tr.add(0, trace, layerFtsim, "Benchmark "+name, t, time.Now())
		progs[name] = p
	}
	rep.set("ftsim.program_build_ms", "ms", median(buildMs))

	grid, err := faultCampaignGrid(o)
	if err != nil {
		return err
	}
	var newUs []float64
	for _, t := range grid {
		start := time.Now()
		if _, err := ftsim.NewFromConfig(t.Config); err != nil {
			return err
		}
		newUs = append(newUs, float64(time.Since(start))/1e3)
		tr.add(0, trace, layerFtsim, "NewFromConfig", start, time.Now())
	}
	rep.set("ftsim.new_machine_us", "us", median(newUs))

	cfg := ftsim.ModelSS2.Config()
	cfg.MaxInsts = 4_000
	cfg.Fault = ftsim.FaultConfig{Rate: 1e-3, Seed: o.seed, Targets: ftsim.AllFaultTargets()}
	m, err := ftsim.NewFromConfig(cfg)
	if err != nil {
		return err
	}
	var loadUs, poolUs []float64
	pool := new(ftsim.MachinePool)
	for _, name := range ftsim.Benchmarks() {
		p := progs[name]
		if _, err := m.RunPooled(ctx, pool, p); err != nil {
			return err
		}
		// The fastest of several runs each way, so that a stray slow run
		// on a shared host cannot make the overhead read negative.
		pooled, direct := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 9; i++ {
			t := time.Now()
			if _, err := m.RunPooled(ctx, pool, p); err != nil {
				return err
			}
			pooled = min(pooled, time.Since(t))
			t = time.Now()
			s, err := m.Load(p)
			if err != nil {
				return err
			}
			loaded := time.Now()
			loadUs = append(loadUs, float64(loaded.Sub(t))/1e3)
			tr.add(0, trace, layerFtsim, "Load", t, loaded)
			if _, err := s.Run(ctx); err != nil {
				return err
			}
			direct = min(direct, time.Since(loaded))
		}
		poolUs = append(poolUs, float64(pooled-direct)/1e3)
	}
	rep.set("ftsim.load_us", "us", median(loadUs))
	rep.set("ftsim.pool_overhead_us", "us", median(poolUs))

	// cpu: host time per simulated cycle and instruction, per class,
	// timed at Session.Run.
	var allNs, allCycles, allInsts float64
	for _, cl := range cpuClasses {
		var ns, cycles, insts64 float64
		for _, name := range []string{"gcc", "go", "fpppp", "swim"} {
			for _, model := range cl.models {
				cfg := model.Config()
				cfg.MaxInsts = insts
				if cl.ruu > 0 {
					cfg.Pipeline.RUUSize, cfg.Pipeline.LSQSize = cl.ruu, cl.ruu/2
				}
				if cl.rate > 0 {
					cfg.Fault = ftsim.FaultConfig{Rate: cl.rate, Seed: o.seed, Targets: ftsim.AllFaultTargets()}
				}
				m, err := ftsim.NewFromConfig(cfg)
				if err != nil {
					return err
				}
				s, err := m.Load(progs[name])
				if err != nil {
					return err
				}
				t := time.Now()
				st, err := s.Run(ctx)
				if err != nil {
					return err
				}
				d := time.Since(t)
				tr.add(0, trace, layerCPU, "Session.Run "+cl.name, t, t.Add(d))
				ns += float64(d)
				cycles += float64(st.Cycles)
				insts64 += float64(st.Committed)
			}
		}
		rep.set("cpu.host_ns_per_sim_cycle."+cl.name, "ns", ns/cycles)
		rep.set("cpu.host_ns_per_sim_inst."+cl.name, "ns", ns/insts64)
		rep.set("cpu.sim_ipc."+cl.name, "insts/cycle", insts64/cycles)
		allNs, allCycles, allInsts = allNs+ns, allCycles+cycles, allInsts+insts64
	}
	rep.set("cpu.host_ns_per_sim_cycle", "ns", allNs/allCycles)
	rep.set("cpu.host_ns_per_sim_inst", "ns", allNs/allInsts)

	// campaign: the fault-campaign grid with and without the journal,
	// alternating, so the journal's share of a campaign shows.
	var with, without []float64
	for i := 0; i < 2; i++ {
		for _, journal := range []bool{true, false} {
			opts := []ftsim.CampaignOption{ftsim.WithWorkers(inprocWorkers), ftsim.WithCampaignSeed(o.seed)}
			if journal {
				path := filepath.Join(o.dir, fmt.Sprintf("probe-%d.ckpt", i))
				opts = append(opts, ftsim.WithCheckpoint(path), ftsim.WithCheckpointFlushEvery(1))
			}
			t := time.Now()
			if _, err := ftsim.RunCampaign(ctx, "probe", grid, opts...); err != nil {
				return err
			}
			d := time.Since(t)
			tr.add(0, trace, layerCampaign, fmt.Sprintf("RunCampaign journal=%v", journal), t, t.Add(d))
			if journal {
				with = append(with, d.Seconds())
			} else {
				without = append(without, d.Seconds())
			}
		}
	}
	rep.set("campaign.journal_cost_frac", "ratio", 1-median(without)/median(with))

	if !withService {
		return nil
	}
	c, err := setupCluster(ctx, o)
	if err != nil {
		return err
	}
	defer c.close()
	run := newSvcRun("probe-job-")
	rng := rand.New(rand.NewSource(o.seed + 1))
	for i := 0; i < 6; i++ {
		if err := c.segment(ctx, o, rep, tr, rng, run, 0); err != nil {
			return err
		}
	}
	_, err = serviceLayers(rep, tr, run)
	return err
}

// finishTrace reports each layer's share of the self time of the
// workload's own traced jobs and writes every span out.
func (r *report) finishTrace(o options, tr *tracer) error {
	self := tr.selfTimes(func(trace string) bool { return strings.HasPrefix(trace, "job-") })
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range allLayers {
		r.set("trace.self_frac."+l, "ratio", safeDiv(float64(self[l]), float64(total)))
	}
	r.set("trace.spans", "count", float64(tr.count()))
	if o.spans == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
		return err
	}
	r.details["spans_file"] = o.spans
	return tr.write(o.spans)
}
