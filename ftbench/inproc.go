package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/ftsim"
)

// simWindowGrid is long fault-free trials across window sizes: nearly
// all host time is in the pipeline loop, and RUU 256 with R=3 is where
// issue-select cost grows with the window.
func simWindowGrid(o options) ([]ftsim.Trial, error) {
	insts := uint64(100_000)
	if o.tiny {
		insts = 3_000
	}
	var out []ftsim.Trial
	for _, b := range []string{"gcc", "go", "fpppp", "swim"} {
		p, err := ftsim.Benchmark(b)
		if err != nil {
			return nil, err
		}
		for _, m := range []ftsim.Model{ftsim.ModelSS1, ftsim.ModelSS2, ftsim.ModelSS3} {
			for _, ruu := range []int{64, 256} {
				cfg := m.Config()
				cfg.MaxInsts = insts
				cfg.Pipeline.RUUSize = ruu
				cfg.Pipeline.LSQSize = ruu / 2
				out = append(out, ftsim.Trial{
					Label: fmt.Sprintf("%s/%s/ruu%d", b, m, ruu), Config: cfg, Program: p,
				})
			}
		}
	}
	return out, nil
}

// faultRates are the Figure 5/6 injection rates of the fault-campaign
// grid.
var faultRates = []float64{0, 1e-4, 1e-3, 1e-2}

// faultCampaignGrid is the shape of Figures 5 and 6: every Table 2
// program on every design at every fault rate, short trials, so
// per-trial fixed costs are a large share of the time.
func faultCampaignGrid(o options) ([]ftsim.Trial, error) {
	insts := uint64(4_000)
	if o.tiny {
		insts = 500
	}
	var out []ftsim.Trial
	for _, b := range ftsim.Benchmarks() {
		p, err := ftsim.Benchmark(b)
		if err != nil {
			return nil, err
		}
		for _, m := range []ftsim.Model{ftsim.ModelSS1, ftsim.ModelSS2, ftsim.ModelSS3, ftsim.ModelStatic2} {
			for _, rate := range faultRates {
				cfg := m.Config()
				cfg.MaxInsts = insts
				if rate > 0 {
					cfg.Fault.Rate = rate
					cfg.Fault.Targets = ftsim.AllFaultTargets()
				}
				out = append(out, ftsim.Trial{
					Label: fmt.Sprintf("%s/%s/%g", b, m, rate), Config: cfg, Program: p,
				})
			}
		}
	}
	return out, nil
}

// inprocWorkers is the campaign pool size: one simulation goroutine per
// CPU of the 2-CPU reference host.
const inprocWorkers = 2

// inproc is a set-up in-process workload.
type inproc struct {
	grid       []ftsim.Trial
	checkpoint bool
}

// setupInproc builds the programs and the grid and warms the runtime
// with one short campaign of the same shape.
func setupInproc(ctx context.Context, o options, build func(options) ([]ftsim.Trial, error), checkpoint bool) (*inproc, error) {
	grid, err := build(o)
	if err != nil {
		return nil, err
	}
	warm := make([]ftsim.Trial, len(grid))
	for i, t := range grid {
		t.Config.MaxInsts = min(t.Config.MaxInsts, 500)
		warm[i] = t
	}
	env := &inproc{grid: grid, checkpoint: checkpoint}
	if _, err := ftsim.RunCampaign(ctx, "warmup", warm, env.options(o, filepath.Join(o.dir, "warmup"), nil)...); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return env, nil
}

// options are the campaign options of one timed campaign; journal is
// its checkpoint path (a fresh one each campaign, or nothing resumes).
func (e *inproc) options(o options, journal string, sink *ftsim.CampaignMetrics) []ftsim.CampaignOption {
	opts := []ftsim.CampaignOption{ftsim.WithWorkers(inprocWorkers), ftsim.WithCampaignSeed(o.seed)}
	if e.checkpoint {
		os.Remove(journal)
		opts = append(opts, ftsim.WithCheckpoint(journal), ftsim.WithCheckpointFlushEvery(1))
	}
	if sink != nil {
		opts = append(opts, ftsim.WithMetricsSink(sink))
	}
	return opts
}

// inprocRun is what a timed loop of campaigns observed.
type inprocRun struct {
	timings
	first    *ftsim.CampaignReport // the first campaign, for the checks
	firstPs  []projection
	campaign []campaignObs
	// Simulated totals of successful trials, for the cpu-layer ratios.
	cycles, committed, ruuOcc, rewinds uint64
	failedTrials                       int
	// Traced runs only: the rebuilt trial spans, which splitTrials
	// divides between the ftsim and cpu layers.
	trialSpans []trialSpan
}

// campaignObs is one campaign's engine-level observations.
type campaignObs struct {
	busyFrac float64
	tailS    float64
}

// loop runs the grid as a closed loop of campaigns for dur. Each
// campaign is one job: its time is the RunCampaign call as its caller
// sees it, and its first-trial time is the call to the first
// completion.
func (e *inproc) loop(ctx context.Context, o options, rep *report, tr *tracer, sink *ftsim.CampaignMetrics, dur time.Duration) (*inprocRun, error) {
	run := &inprocRun{}
	start := time.Now()
	for job := 0; job == 0 || time.Since(start) < dur; job++ {
		trace := "job-" + strconv.Itoa(job)
		var first time.Time
		var completions []time.Time
		var trialMs []float64
		meter := startJob()
		campID, end := tr.open(0, trace, layerCampaign, "RunCampaign")
		opts := append(e.options(o, filepath.Join(o.dir, trace+".ckpt"), sink),
			ftsim.WithCampaignProgress(func(done, total int, r ftsim.TrialResult) {
				now := time.Now()
				if first.IsZero() {
					first = now
				}
				completions = append(completions, now)
				if tr != nil {
					start := now.Add(-r.Elapsed)
					id := tr.add(campID, trace, layerFtsim, "RunPooled "+r.Label, start, now)
					run.trialSpans = append(run.trialSpans, trialSpan{id, trace, start, now})
				}
			}))
		cr, err := ftsim.RunCampaign(ctx, o.workload, e.grid, opts...)
		jobEnd := time.Now()
		end()
		if cr == nil {
			return nil, fmt.Errorf("campaign %d: %w", job, err)
		}
		ps := make([]projection, len(cr.Results))
		busy := 0.0
		trials, insts := 0, uint64(0)
		for i, r := range cr.Results {
			rep.attempted++
			st, ok := r.Value.(*ftsim.Stats)
			if r.Err != nil || !ok {
				rep.fail("trial %s: %v", r.Label, r.Err)
				run.failedTrials++
				continue
			}
			busy += r.Elapsed.Seconds()
			trials++
			insts += st.Committed
			trialMs = append(trialMs, ms(r.Elapsed))
			run.cycles += st.Cycles
			run.committed += st.Committed
			run.ruuOcc += st.RUUOccupancy
			run.rewinds += st.FaultRewinds
			ps[i] = project(st)
		}
		run.jobs = append(run.jobs, meter.sample(jobEnd, first, trialMs, trials, insts))
		obs := campaignObs{}
		if cr.Wall > 0 {
			obs.busyFrac = busy / (cr.Wall.Seconds() * float64(cr.Workers))
		}
		if k := len(completions) - cr.Workers; k > 0 {
			obs.tailS = jobEnd.Sub(completions[k-1]).Seconds()
		}
		run.campaign = append(run.campaign, obs)
		if job == 0 {
			run.first, run.firstPs = cr, ps
			continue
		}
		// Every campaign runs the same grid with the same seed, so every
		// trial must reproduce the first campaign's statistics.
		rep.attempted++
		for i := range ps {
			if cr.Results[i].Err == nil && ps[i] != run.firstPs[i] {
				rep.fail("campaign %d trial %s differs from campaign 0", job, cr.Results[i].Label)
				break
			}
		}
	}
	run.elapsed = time.Since(start)
	return run, nil
}

// check reruns a seed-chosen sample of the first campaign's trials with
// the oracle on and checks the first campaign's digest.
func (e *inproc) check(ctx context.Context, o options, rep *report, run *inprocRun, k int) error {
	var rs []rerun
	for _, i := range sample(o.seed, len(e.grid), k) {
		r := run.first.Results[i]
		if r.Err != nil {
			continue
		}
		t := e.grid[i]
		rs = append(rs, rerun{
			label: t.Label, cfg: t.Config, prog: t.Program, seed: r.Seed,
			timed: run.firstPs[i], escapes: t.Config.R >= 2,
		})
	}
	escapes, err := verifyReruns(ctx, o, rep, rs)
	if err != nil {
		return err
	}
	checkDigest(o, rep, run.firstPs, escapes)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runSimWindow(ctx context.Context, o options) (*report, error) {
	return runInproc(ctx, o, simWindowGrid, false, 6)
}

func runFaultCampaign(ctx context.Context, o options) (*report, error) {
	return runInproc(ctx, o, faultCampaignGrid, true, 24)
}

// runInproc is the untraced or traced run of an in-process workload;
// reruns is the size of the oracle re-simulation sample.
func runInproc(ctx context.Context, o options, build func(options) ([]ftsim.Trial, error), checkpoint bool, reruns int) (*report, error) {
	rep := newReport()
	env, setupS, err := medianSetup(rep, setupReps,
		func() (*inproc, error) { return setupInproc(ctx, o, build, checkpoint) },
		func(*inproc) {})
	if err != nil {
		return nil, err
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		run, err := env.loop(ctx, o, rep, nil, nil, dur)
		if err != nil {
			return nil, err
		}
		if err := env.check(ctx, o, rep, run, reruns); err != nil {
			return nil, err
		}
		rep.endToEnd(o, &run.timings, setupS)
		return rep, nil
	}

	// Traced: half the time untraced, half traced, then the layer
	// probes. The difference between the halves is the tracing cost.
	untraced, err := env.loop(ctx, o, rep, nil, nil, dur/2)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	reg := ftsim.NewMetricsRegistry()
	traced, err := env.loop(ctx, o, rep, tr, ftsim.NewCampaignMetrics(reg), dur/2)
	if err != nil {
		return nil, err
	}
	if err := env.check(ctx, o, rep, traced, reruns); err != nil {
		return nil, err
	}
	rep.traceOverhead(&untraced.timings, &traced.timings)
	counters, err := scrapeRegistry(reg)
	if err != nil {
		return nil, err
	}
	n := float64(len(traced.campaign))
	var busy, tails []float64
	for _, c := range traced.campaign {
		busy = append(busy, c.busyFrac)
		tails = append(tails, c.tailS)
	}
	rep.set("campaign.trial_ms", "ms", median(traced.trialMs()))
	rep.set("campaign.busy_frac", "ratio", median(busy))
	rep.set("campaign.tail_s", "s", median(tails))
	rep.set("campaign.ckpt_syncs", "count", counters["ftsim_checkpoint_syncs_total"]/n)
	rep.set("campaign.ckpt_bytes", "B", counters["ftsim_checkpoint_synced_bytes_total"]/n)
	rep.set("campaign.retries", "count", counters["ftsim_trial_retries_total"])
	rep.set("campaign.failed_trials", "count", float64(traced.failedTrials))
	rep.simLayer(traced.cycles, traced.committed, traced.ruuOcc, traced.rewinds)
	if err := probeLayers(ctx, o, rep, tr, true); err != nil {
		return nil, err
	}
	splitTrials(rep, tr, traced.trialSpans)
	return rep, rep.finishTrace(o, tr)
}

// scrapeRegistry sums every series of each family in a registry's
// Prometheus text.
func scrapeRegistry(reg *ftsim.MetricsRegistry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parsePrometheus(buf.String()), nil
}

// parsePrometheus sums the samples of each metric name in Prometheus
// text exposition (labels are summed over).
func parsePrometheus(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out
}

// simLayer reports the simulated-model counters of the timed trials.
func (r *report) simLayer(cycles, committed, ruuOcc, rewinds uint64) {
	occ, perK := 0.0, 0.0
	if cycles > 0 {
		occ = float64(ruuOcc) / float64(cycles)
	}
	if committed > 0 {
		perK = 1000 * float64(rewinds) / float64(committed)
	}
	r.set("cpu.ruu_occupancy", "entries", occ)
	r.set("cpu.fault_rewinds_per_kinst", "1/kinst", perK)
}

// traceOverhead reports how much slower the traced half ran.
func (r *report) traceOverhead(untraced, traced *timings) {
	u := float64(untraced.trials()) / untraced.elapsed.Seconds()
	t := float64(traced.trials()) / traced.elapsed.Seconds()
	r.set("trace.overhead_trials_per_s", "trials/s", u-t)
	r.set("trace.overhead_job_p50_ms", "ms", median(traced.jobMs())-median(untraced.jobMs()))
	r.details["untraced_trials_per_s"] = u
	r.details["traced_trials_per_s"] = t
}
