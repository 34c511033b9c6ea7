package experiments

import (
	"fmt"
	"io"

	"repro/ftsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Limiter classifies what bounds a benchmark's baseline throughput,
// reproducing the Section 5.2 analysis ("we test the benchmark's
// sensitivity to varying numbers of functional units and RUU sizes").
type Limiter string

const (
	// LimitFU: doubling the functional units raises IPC materially; the
	// benchmark saturates Table 1's unit mix, so redundant injection is
	// expensive (gcc, vortex, bzip, ijpeg, fpppp...).
	LimitFU Limiter = "FU-limited"
	// LimitRUU: enlarging the window raises IPC materially (swim).
	LimitRUU Limiter = "RUU-limited"
	// LimitILP: nearly insensitive to both; throughput is bound by the
	// program's own dependences and branches, so the second thread rides
	// along almost free (go, vpr, ammp).
	LimitILP Limiter = "ILP-limited"
)

// SensRow holds one benchmark's resource-sensitivity sweep: baseline IPC
// and the IPC with functional units and window scaled by 0.5x, 2x and
// "infinite" (16x).
type SensRow struct {
	Bench   string
	Base    float64
	FUHalf  float64
	FU2x    float64
	FUInf   float64
	RUUHalf float64
	RUU2x   float64
	RUUInf  float64
	Limiter Limiter
	FUGain  float64 // FU2x/Base - 1
	RUUGain float64 // RUU2x/Base - 1
}

// scaleFU multiplies every functional-unit pool (minimum 1 unit each).
func scaleFU(cfg ftsim.Config, factor float64) ftsim.Config {
	mul := func(n int) int {
		v := int(float64(n)*factor + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	cfg.Pipeline.IntALU = mul(cfg.Pipeline.IntALU)
	cfg.Pipeline.IntMult = mul(cfg.Pipeline.IntMult)
	cfg.Pipeline.FPAdd = mul(cfg.Pipeline.FPAdd)
	cfg.Pipeline.FPMult = mul(cfg.Pipeline.FPMult)
	cfg.Pipeline.MemPorts = mul(cfg.Pipeline.MemPorts)
	return cfg
}

// scaleWindow multiplies the RUU and LSQ sizes.
func scaleWindow(cfg ftsim.Config, factor float64) ftsim.Config {
	cfg.Pipeline.RUUSize = int(float64(cfg.Pipeline.RUUSize) * factor)
	cfg.Pipeline.LSQSize = int(float64(cfg.Pipeline.LSQSize) * factor)
	return cfg
}

// Sensitivity reproduces the Section 5.2 study on the baseline machine:
// an 11-benchmark x 7-configuration campaign grid.
func Sensitivity(opt Options) ([]SensRow, error) {
	opt = opt.defaults()
	const gainThreshold = 0.08
	ss1 := ftsim.ModelSS1.Config()
	scales := []struct {
		name string
		cfg  ftsim.Config
	}{
		{"base", ss1},
		{"fu-0.5x", scaleFU(ss1, 0.5)},
		{"fu-2x", scaleFU(ss1, 2)},
		{"fu-16x", scaleFU(ss1, 16)},
		{"ruu-0.5x", scaleWindow(ss1, 0.5)},
		{"ruu-2x", scaleWindow(ss1, 2)},
		{"ruu-16x", scaleWindow(ss1, 16)},
	}
	profiles := workload.Table2()
	points := make([]simPoint, 0, len(profiles)*len(scales))
	for _, p := range profiles {
		for _, s := range scales {
			points = append(points, simPoint{"sens/" + p.Name + "/" + s.name, p.Name, s.cfg})
		}
	}
	sts, err := runGrid("sensitivity", points, nil, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]SensRow, len(profiles))
	for i, p := range profiles {
		ipc := func(j int) float64 { return sts[i*len(scales)+j].IPC() }
		row := SensRow{
			Bench: p.Name,
			Base:  ipc(0), FUHalf: ipc(1), FU2x: ipc(2), FUInf: ipc(3),
			RUUHalf: ipc(4), RUU2x: ipc(5), RUUInf: ipc(6),
		}
		if row.Base > 0 {
			row.FUGain = row.FU2x/row.Base - 1
			row.RUUGain = row.RUU2x/row.Base - 1
		}
		// Classify by the stronger lever; below the threshold the
		// benchmark is bound by its own ILP, not the machine.
		switch {
		case row.FUGain >= gainThreshold && row.FUGain >= row.RUUGain:
			row.Limiter = LimitFU
		case row.RUUGain >= gainThreshold:
			row.Limiter = LimitRUU
		default:
			row.Limiter = LimitILP
		}
		rows[i] = row
	}
	return rows, nil
}

// PrintSensitivity renders the resource-sensitivity study.
func PrintSensitivity(w io.Writer, rows []SensRow) {
	t := stats.NewTable("Section 5.2: sensitivity to functional units and RUU size (IPC)",
		"bench", "base", "FU 0.5x", "FU 2x", "FU 16x", "RUU 0.5x", "RUU 2x", "RUU 16x", "limiter")
	for _, r := range rows {
		t.Add(r.Bench, stats.F(r.Base, 3), stats.F(r.FUHalf, 3), stats.F(r.FU2x, 3),
			stats.F(r.FUInf, 3), stats.F(r.RUUHalf, 3), stats.F(r.RUU2x, 3),
			stats.F(r.RUUInf, 3), string(r.Limiter))
	}
	t.Render(w)
}

// ---------------------------------------------------------------------
// Ablations.

// CoSchedRow compares SS-2 with and without co-scheduling redundant
// copies on distinct functional-unit instances (Section 3.5).
type CoSchedRow struct {
	Bench      string
	IPCBase    float64
	IPCCoSched float64
}

// AblateCoSchedule measures the throughput cost of forcing copies onto
// distinct physical units.
func AblateCoSchedule(benches []string, opt Options) ([]CoSchedRow, error) {
	opt = opt.defaults()
	points := make([]simPoint, 0, 2*len(benches))
	for _, name := range benches {
		_, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("ablate-cosched: unknown benchmark %q", name)
		}
		cs := ftsim.ModelSS2.Config()
		cs.CoSchedule = true
		points = append(points,
			simPoint{"cosched/" + name + "/default", name, ftsim.ModelSS2.Config()},
			simPoint{"cosched/" + name + "/co-scheduled", name, cs})
	}
	sts, err := runGrid("ablate-cosched", points, nil, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]CoSchedRow, len(benches))
	for i, name := range benches {
		rows[i] = CoSchedRow{Bench: name, IPCBase: sts[2*i].IPC(), IPCCoSched: sts[2*i+1].IPC()}
	}
	return rows, nil
}

// PrintCoSchedule renders the co-scheduling ablation.
func PrintCoSchedule(w io.Writer, rows []CoSchedRow) {
	t := stats.NewTable("Ablation: co-scheduling redundant copies on distinct FUs (SS-2)",
		"bench", "IPC default", "IPC co-scheduled", "delta")
	for _, r := range rows {
		delta := 0.0
		if r.IPCBase > 0 {
			delta = r.IPCCoSched/r.IPCBase - 1
		}
		t.Add(r.Bench, stats.F(r.IPCBase, 3), stats.F(r.IPCCoSched, 3), stats.Pct(delta))
	}
	t.Render(w)
}

// CommitWidthRow measures how the commit-bandwidth tax of Section 3.2
// ("the effective commit/retire bandwidth is reduced by a factor of R")
// depends on the provisioned width.
type CommitWidthRow struct {
	Width int
	IPC1  float64
	IPC2  float64
}

// AblateCommitWidth sweeps the commit width for one benchmark on SS-1
// and SS-2.
func AblateCommitWidth(bench string, widths []int, opt Options) ([]CommitWidthRow, error) {
	opt = opt.defaults()
	_, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("ablate-commit: unknown benchmark %q", bench)
	}
	points := make([]simPoint, 0, 2*len(widths))
	for _, wd := range widths {
		c1 := ftsim.ModelSS1.Config()
		c1.Pipeline.CommitWidth = wd
		c2 := ftsim.ModelSS2.Config()
		c2.Pipeline.CommitWidth = wd
		points = append(points,
			simPoint{fmt.Sprintf("commit/%s/SS-1/w%d", bench, wd), bench, c1},
			simPoint{fmt.Sprintf("commit/%s/SS-2/w%d", bench, wd), bench, c2})
	}
	sts, err := runGrid("ablate-commit", points, nil, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]CommitWidthRow, len(widths))
	for i, wd := range widths {
		rows[i] = CommitWidthRow{Width: wd, IPC1: sts[2*i].IPC(), IPC2: sts[2*i+1].IPC()}
	}
	return rows, nil
}

// PrintCommitWidth renders the commit-width ablation.
func PrintCommitWidth(w io.Writer, bench string, rows []CommitWidthRow) {
	t := stats.NewTable(fmt.Sprintf("Ablation: commit width vs redundancy tax (%s)", bench),
		"commit width", "SS-1 IPC", "SS-2 IPC", "SS-2/SS-1")
	for _, r := range rows {
		ratio := 0.0
		if r.IPC1 > 0 {
			ratio = r.IPC2 / r.IPC1
		}
		t.Add(fmt.Sprintf("%d", r.Width), stats.F(r.IPC1, 3), stats.F(r.IPC2, 3), stats.F(ratio, 3))
	}
	t.Render(w)
}

// RecoveryGrainRow compares fine-grain rewind recovery with coarser
// schemes at one fault rate — the simulated counterpart of the
// Figure 3 / Figure 4 analytic comparison.
type RecoveryGrainRow struct {
	Penalty    int // extra cycles per recovery (0 = fine-grain rewind)
	IPC        float64
	Rewinds    uint64
	AvgPenalty float64 // measured cycles per recovery
}

// AblateRecoveryGrain sweeps the per-recovery penalty for one benchmark
// on SS-2 at a fixed fault rate.
func AblateRecoveryGrain(bench string, faultsPerM float64, penalties []int, opt Options) ([]RecoveryGrainRow, error) {
	opt = opt.defaults()
	_, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("ablate-recovery: unknown benchmark %q", bench)
	}
	points := make([]simPoint, 0, len(penalties))
	for _, pen := range penalties {
		cfg := ftsim.ModelSS2.Config()
		// Seed is set per trial by the campaign grid (runGrid).
		cfg.Fault = ftsim.FaultConfig{Rate: faultsPerM / 1e6, Targets: ftsim.AllFaultTargets()}
		cfg.RecoveryPenalty = pen
		points = append(points, simPoint{fmt.Sprintf("recovery/%s/pen%d", bench, pen), bench, cfg})
	}
	// Every penalty arm shares one seed group: the sweep varies only the
	// recovery cost, so all arms must see the identical fault stream.
	sts, err := runGrid("ablate-recovery", points, func(int) int { return 0 }, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]RecoveryGrainRow, len(penalties))
	for i, pen := range penalties {
		rows[i] = RecoveryGrainRow{
			Penalty:    pen,
			IPC:        sts[i].IPC(),
			Rewinds:    sts[i].FaultRewinds,
			AvgPenalty: sts[i].AvgRecoveryPenalty(),
		}
	}
	return rows, nil
}

// PrintRecoveryGrain renders the recovery-granularity ablation.
func PrintRecoveryGrain(w io.Writer, bench string, faultsPerM float64, rows []RecoveryGrainRow) {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: recovery granularity (%s, %.0f faults/M copies, SS-2)", bench, faultsPerM),
		"extra penalty", "measured cycles/recovery", "rewinds", "IPC")
	for _, r := range rows {
		t.Add(fmt.Sprintf("%d", r.Penalty), stats.F(r.AvgPenalty, 1),
			fmt.Sprintf("%d", r.Rewinds), stats.F(r.IPC, 3))
	}
	t.Render(w)
}
