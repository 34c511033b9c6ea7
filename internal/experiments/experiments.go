// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the Section 5.2 sensitivity study and two
// ablations. Each driver returns structured results (so tests can assert
// the paper's qualitative claims) and has a Print companion that renders
// the same rows a reader would compare against the paper.
//
// All simulation-backed drivers are thin grids over the public ftsim
// facade: each enumerates ftsim.Trials (a serializable ftsim.Config
// plus a benchmark program) and runs them through ftsim.RunCampaign,
// so experiments exercise exactly the API embedders use.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/ftsim"
	"repro/internal/funcsim"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options bounds the simulations.
type Options struct {
	// MaxInsts is the committed-instruction budget per simulation run
	// (the paper simulates 1B per benchmark; the default here keeps the
	// full suite interactive).
	MaxInsts uint64
	// FaultSeed is the campaign master seed: each trial's fault-injection
	// seed is derived from it and the trial's grid index, so a whole
	// experiment is reproducible from this one number.
	FaultSeed int64
	// Parallel is the campaign worker-pool size: 0 uses GOMAXPROCS,
	// 1 forces a serial run. Results are identical for any value.
	Parallel int
	// Context, when non-nil, cancels the campaign: dispatch stops and
	// in-flight simulations abort promptly (the context is plumbed
	// through the worker pool into every pipeline loop).
	Context context.Context
	// Progress, when non-nil, observes every campaign trial completion.
	Progress ftsim.CampaignProgress
	// Report, when non-nil, receives each finished campaign's report
	// (worker count, wall time, streaming trial-time aggregates).
	Report func(*ftsim.CampaignReport)
	// Metrics, when non-nil, receives campaign instrumentation (trial
	// durations and outcomes, retries, checkpoint fsyncs) for every
	// experiment run under these options. A pure tap: results are
	// identical with and without it.
	Metrics *ftsim.CampaignMetrics

	// CheckpointDir, when non-empty, journals each campaign's completed
	// trials to <dir>/<campaign>.ckpt so a killed run can resume. A
	// non-empty journal is only resumed when Resume is also set;
	// otherwise it is reported as an error rather than silently resumed
	// or overwritten.
	CheckpointDir string
	// Resume permits resuming existing checkpoint journals: completed
	// trials are restored from disk and only the remainder simulates.
	Resume bool
	// TrialTimeout, when positive, bounds each trial with a per-trial
	// deadline (ftsim.WithTrialTimeout).
	TrialTimeout time.Duration
	// Retries re-attempts retryable trial failures this many times.
	Retries int
	// Contain keeps a campaign running past trial failures, collecting
	// an error manifest instead of cancelling the grid.
	Contain bool
}

// Defaults fills zero fields.
func (o Options) defaults() Options {
	if o.MaxInsts == 0 {
		o.MaxInsts = 200_000
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = 1
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// workloadIters is the loop bound baked into generated benchmarks; runs
// are always cut off by MaxInsts first.
const workloadIters = int64(1) << 32

// ---------------------------------------------------------------------
// Table 1: machine parameters (configuration echo).

// PrintTable1 renders the simulated machine parameters, mirroring the
// paper's Table 1.
func PrintTable1(w io.Writer) {
	cfg := ftsim.ModelSS1.Config()
	p := cfg.Pipeline
	t := stats.NewTable("Table 1: baseline superscalar machine parameters", "parameter", "value")
	t.Add("fetch/decode/issue/commit width", fmt.Sprintf("%d / %d / %d / %d",
		p.FetchWidth, p.DispatchWidth, p.IssueWidth, p.CommitWidth))
	t.Add("RUU / LSQ size", fmt.Sprintf("%d / %d", p.RUUSize, p.LSQSize))
	t.Add("branch predictor", cfg.BranchPred.String())
	t.Add("IL1", cfg.Memory.IL1.String())
	t.Add("DL1", cfg.Memory.DL1.String()+fmt.Sprintf(", %d R/W ports", p.MemPorts))
	t.Add("UL2", cfg.Memory.L2.String())
	t.Add("memory latency", fmt.Sprintf("%d cycles", cfg.Memory.Latency))
	t.Add("functional units", fmt.Sprintf("%d IntALU, %d IntMult/Div, %d FPAdd, %d FPMult/Div",
		p.IntALU, p.IntMult, p.FPAdd, p.FPMult))
	t.Render(w)
}

// ---------------------------------------------------------------------
// Table 2: benchmark dynamic instruction mixes.

// MixRow compares a benchmark's measured dynamic mix with its Table 2
// target.
type MixRow struct {
	Bench    string
	Measured funcsim.Mix
	Profile  workload.Profile
}

// Table2 measures each synthetic benchmark's dynamic mix on the
// functional simulator. It is a plain loop, not a campaign: its eleven
// functional runs take a fraction of a second, so nothing is journaled,
// retried or reported per trial.
func Table2(opt Options) ([]MixRow, error) {
	opt = opt.defaults()
	profiles := workload.Table2()
	rows := make([]MixRow, len(profiles))
	for i, p := range profiles {
		program, err := p.Build(workloadIters)
		if err != nil {
			return nil, err
		}
		// The functional simulator has no context plumbing of its own;
		// stepping it in bounded chunks keeps the loop responsive to
		// cancellation without changing the measured mix (the stepper is
		// deterministic, so N chunked runs equal one straight run).
		const chunk = 65_536
		m := funcsim.New(program)
		for {
			if err := opt.Context.Err(); err != nil {
				return nil, err
			}
			err := m.Run(min(m.Insts+chunk, opt.MaxInsts))
			if err == nil || m.Insts >= opt.MaxInsts {
				break // halted or budget exhausted
			}
			if err != funcsim.ErrLimit {
				return nil, fmt.Errorf("table2 %s: %w", p.Name, err)
			}
		}
		rows[i] = MixRow{Bench: p.Name, Measured: m.Mix(), Profile: p}
	}
	return rows, nil
}

// PrintTable2 renders measured-vs-target mixes.
func PrintTable2(w io.Writer, rows []MixRow) {
	t := stats.NewTable("Table 2: dynamic instruction mix (measured / paper)",
		"bench", "%mem", "%int", "%fp add", "%fp mult", "%fp div")
	for _, r := range rows {
		cell := func(got, want float64) string {
			return fmt.Sprintf("%5.2f / %5.2f", got, want)
		}
		t.Add(r.Bench,
			cell(r.Measured.MemPct, r.Profile.MemPct),
			cell(r.Measured.IntPct, r.Profile.IntPct),
			cell(r.Measured.FAdd, r.Profile.FAddPct),
			cell(r.Measured.FMul, r.Profile.FMulPct),
			cell(r.Measured.FDiv, r.Profile.FDivPct))
	}
	t.Render(w)
}

// ---------------------------------------------------------------------
// Figures 3 and 4: analytical IPC vs fault frequency.

// Curves holds the analytic series of Figure 3 or 4.
type Curves struct {
	Rewind float64 // cycles
	Freqs  []float64
	R2     []model.Point
	R3     []model.Point
	R3Maj  []model.Point
}

// Fig3 evaluates the Section 4 model with the paper's Figure 3
// parameters: IPC1 = B normalised to 1, rewind penalty 20 cycles.
func Fig3() Curves { return analyticCurves(20) }

// Fig4 is Figure 3 with the rewind penalty raised to 2000 cycles,
// modelling coarse-grain checkpoint recovery.
func Fig4() Curves { return analyticCurves(2000) }

func analyticCurves(rw float64) Curves {
	freqs := model.LogSpace(1e-8, 1e-1, 29)
	mk := func(r int, maj bool) []model.Point {
		return model.Curve(model.CurveConfig{IPC1: 1, B: 1, R: r, Majority: maj, Rewind: rw}, freqs)
	}
	return Curves{
		Rewind: rw,
		Freqs:  freqs,
		R2:     mk(2, false),
		R3:     mk(3, false),
		R3Maj:  mk(3, true),
	}
}

// PrintCurves renders an analytic figure as columns.
func PrintCurves(w io.Writer, title string, c Curves) {
	t := stats.NewTable(title, "faults/inst", "IPC R=2", "IPC R=3", "IPC R=3 majority")
	for i := range c.Freqs {
		t.Add(fmt.Sprintf("%.1e", c.Freqs[i]), stats.F(c.R2[i].IPC, 3),
			stats.F(c.R3[i].IPC, 3), stats.F(c.R3Maj[i].IPC, 3))
	}
	t.Render(w)
}

// ---------------------------------------------------------------------
// Figure 5: steady-state IPC of SS-1, Static-2 and SS-2.

// Fig5Row is one benchmark's bar group in Figure 5.
type Fig5Row struct {
	Bench   string
	SS1     float64
	Static2 float64
	SS2     float64
	// Penalty is the SS-2 throughput loss relative to SS-1 (the paper's
	// 2%-45% range, 30% average).
	Penalty float64
}

// Fig5 runs the three machine models over the 11 benchmarks — a 33-point
// campaign grid.
func Fig5(opt Options) ([]Fig5Row, error) {
	opt = opt.defaults()
	profiles := workload.Table2()
	points := make([]simPoint, 0, 3*len(profiles))
	for _, p := range profiles {
		points = append(points,
			simPoint{"fig5/" + p.Name + "/SS-1", p.Name, ftsim.ModelSS1.Config()},
			simPoint{"fig5/" + p.Name + "/Static-2", p.Name, ftsim.ModelStatic2.Config()},
			simPoint{"fig5/" + p.Name + "/SS-2", p.Name, ftsim.ModelSS2.Config()})
	}
	sts, err := runGrid("fig5", points, nil, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, len(profiles))
	for i, p := range profiles {
		row := Fig5Row{Bench: p.Name, SS1: sts[3*i].IPC(), Static2: sts[3*i+1].IPC(), SS2: sts[3*i+2].IPC()}
		if row.SS1 > 0 {
			row.Penalty = 1 - row.SS2/row.SS1
		}
		rows[i] = row
	}
	return rows, nil
}

// MeanPenalty returns the average SS-2 throughput penalty across rows.
func MeanPenalty(rows []Fig5Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Penalty
	}
	return sum / float64(len(rows))
}

// PrintFig5 renders the steady-state IPC comparison.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	t := stats.NewTable("Figure 5: steady-state IPC comparison",
		"bench", "SS-1", "Static-2", "SS-2", "SS-2 penalty")
	for _, r := range rows {
		t.Add(r.Bench, stats.F(r.SS1, 3), stats.F(r.Static2, 3), stats.F(r.SS2, 3), stats.Pct(r.Penalty))
	}
	t.Render(w)
	fmt.Fprintf(w, "  mean SS-2 penalty: %s (paper: 2%%-45%%, ~30%% average)\n", stats.Pct(MeanPenalty(rows)))
}

// ---------------------------------------------------------------------
// Figure 6: simulated IPC vs fault frequency (fpppp).

// Fig6Row is one fault-frequency sample.
type Fig6Row struct {
	FaultsPerM float64 // faults per million instruction copies
	R2IPC      float64
	R3IPC      float64
	R2Rewinds  uint64
	R3Rewinds  uint64
	R3Majority uint64
	R2Recovery float64 // average cycles per recovery
}

// Fig6 sweeps the fault-injection rate for one benchmark (the paper uses
// fpppp) on the R=2 rewind design and the R=3 majority design.
func Fig6(bench string, opt Options) ([]Fig6Row, error) {
	opt = opt.defaults()
	if _, ok := workload.ByName(bench); !ok {
		return nil, fmt.Errorf("fig6: unknown benchmark %q", bench)
	}
	ratesPerM := []float64{0, 1, 10, 100, 1000, 5000, 10_000, 20_000, 50_000, 100_000}
	points := make([]simPoint, 0, 2*len(ratesPerM))
	for _, rm := range ratesPerM {
		// Seed is set per trial by the campaign grid (runGrid).
		fc := ftsim.FaultConfig{Rate: rm / 1e6, Targets: ftsim.AllFaultTargets()}
		ss2 := ftsim.ModelSS2.Config()
		ss2.Fault = fc
		ss3 := ftsim.ModelSS3.Config()
		ss3.Fault = fc
		points = append(points,
			simPoint{fmt.Sprintf("fig6/%s/R2@%g", bench, rm), bench, ss2},
			simPoint{fmt.Sprintf("fig6/%s/R3@%g", bench, rm), bench, ss3})
	}
	// The R=2 and R=3 arms at one fault rate share a seed group, so each
	// row compares the two designs under the identical fault stream.
	sts, err := runGrid("fig6", points, func(i int) int { return i / 2 }, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(ratesPerM))
	for i, rm := range ratesPerM {
		st2, st3 := sts[2*i], sts[2*i+1]
		rows[i] = Fig6Row{
			FaultsPerM: rm,
			R2IPC:      st2.IPC(),
			R3IPC:      st3.IPC(),
			R2Rewinds:  st2.FaultRewinds,
			R3Rewinds:  st3.FaultRewinds,
			R3Majority: st3.MajorityCommits,
			R2Recovery: st2.AvgRecoveryPenalty(),
		}
	}
	return rows, nil
}

// PrintFig6 renders the fault-frequency sweep.
func PrintFig6(w io.Writer, bench string, rows []Fig6Row) {
	t := stats.NewTable(fmt.Sprintf("Figure 6: IPC vs fault frequency (%s)", bench),
		"faults/M-inst", "IPC R=2", "IPC R=3 maj", "R2 rewinds", "R3 rewinds", "R3 elected", "R2 avg recovery")
	for _, r := range rows {
		t.Add(stats.F(r.FaultsPerM, 0), stats.F(r.R2IPC, 3), stats.F(r.R3IPC, 3),
			fmt.Sprintf("%d", r.R2Rewinds), fmt.Sprintf("%d", r.R3Rewinds),
			fmt.Sprintf("%d", r.R3Majority), stats.F(r.R2Recovery, 1))
	}
	t.Render(w)
}
