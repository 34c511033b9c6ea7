package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/ftsim"
)

// simPoint is one (benchmark, machine configuration) cell of an
// experiment grid.
type simPoint struct {
	label string
	bench string
	cfg   ftsim.Config
}

// runGrid executes the points through ftsim.RunCampaign and returns
// their statistics in grid order. opt.FaultSeed acts as the campaign
// seed: every point with fault injection enabled has its injector
// reseeded with the derived per-trial seed, so results depend only on
// (grid, seed) — never on worker count or completion order.
//
// group is the seed-index mapping (nil = every point is its own group):
// points sharing a seed index see the identical fault stream, so
// controlled comparisons (R=2 vs R=3 at one fault rate, a penalty sweep
// at one rate) measure the design's difference, not the RNG's. The
// finished report is handed to opt.Report when set.
func runGrid(name string, points []simPoint, group func(int) int, opt Options) ([]*ftsim.Stats, error) {
	progs := make(map[string]*ftsim.Program)
	trials := make([]ftsim.Trial, len(points))
	for i, pt := range points {
		program, ok := progs[pt.bench]
		if !ok {
			var err error
			if program, err = ftsim.Benchmark(pt.bench); err != nil {
				return nil, err
			}
			progs[pt.bench] = program
		}
		cfg := pt.cfg
		cfg.MaxInsts = opt.MaxInsts
		cfg.MaxCycles = opt.MaxInsts * 100 // generous safety net
		trials[i] = ftsim.Trial{Label: pt.label, Config: cfg, Program: program}
	}
	opts := []ftsim.CampaignOption{
		ftsim.WithWorkers(opt.Parallel),
		ftsim.WithCampaignSeed(opt.FaultSeed),
		ftsim.WithCampaignProgress(opt.Progress),
		ftsim.WithMetricsSink(opt.Metrics),
		ftsim.WithTrialTimeout(opt.TrialTimeout),
		ftsim.WithRetry(opt.Retries, 0),
		ftsim.WithSeedIndex(group),
	}
	if !opt.Contain {
		opts = append(opts, ftsim.WithFailFast())
	}
	if opt.CheckpointDir != "" {
		path := filepath.Join(opt.CheckpointDir, name+".ckpt")
		if !opt.Resume {
			// A non-empty journal the caller did not ask to resume is a
			// footgun either way: silently resuming surprises a user who
			// wanted a fresh run, silently overwriting destroys completed
			// work. Make the choice explicit.
			if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
				return nil, fmt.Errorf("experiments: checkpoint %s already holds a journal; resume it (Options.Resume / ftexp -resume) or delete it to start over", path)
			}
		}
		if err := os.MkdirAll(opt.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiments: checkpoint: %w", err)
		}
		opts = append(opts, ftsim.WithCheckpoint(path))
	}
	rep, err := ftsim.RunCampaign(opt.Context, name, trials, opts...)
	if rep != nil && opt.Report != nil {
		opt.Report(rep)
	}
	if err != nil {
		return nil, err
	}
	return ftsim.CollectStats(rep)
}
