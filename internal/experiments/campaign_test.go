package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/ftsim"
)

// TestCampaignDeterminism is the parallelism regression gate: the same
// experiment at -parallel 1 and -parallel 8 must produce identical
// aggregated rows (and byte-identical rendered tables) for the same
// campaign seed. Fig6 exercises the seed-sensitive path (fault
// injection); Fig5 covers the fault-free grids.
func TestCampaignDeterminism(t *testing.T) {
	serial := Options{MaxInsts: 6_000, FaultSeed: 11, Parallel: 1}
	if testing.Short() {
		serial.MaxInsts = 2_000 // keep the concurrency gate, trim the budget
	}
	par := serial
	par.Parallel = 8

	r1, err := Fig6("fpppp", serial)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Fig6("fpppp", par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("fig6 rows differ between -parallel 1 and -parallel 8:\n%+v\n%+v", r1, r8)
	}
	var t1, t8 strings.Builder
	PrintFig6(&t1, "fpppp", r1)
	PrintFig6(&t8, "fpppp", r8)
	if t1.String() != t8.String() {
		t.Error("fig6 rendered tables not byte-identical")
	}

	if testing.Short() {
		return // the fig6 arm above already exercised worker-count invariance
	}
	f1, err := Fig5(serial)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig5(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f8) {
		t.Errorf("fig5 rows differ between -parallel 1 and -parallel 8")
	}
}

// TestCampaignSeedMatters guards against the degenerate "determinism"
// of ignoring the seed entirely: a different campaign seed must change
// the injected-fault trajectory somewhere in the sweep.
func TestCampaignSeedMatters(t *testing.T) {
	a, err := Fig6("fpppp", Options{MaxInsts: 6_000, FaultSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6("fpppp", Options{MaxInsts: 6_000, FaultSeed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("fig6 identical under different campaign seeds")
	}
}

// TestCampaignProgress checks the per-trial progress stream the CLIs
// attach: one callback per grid point, labels carrying the experiment
// name.
func TestCampaignProgress(t *testing.T) {
	var labels []string
	var rep *ftsim.CampaignReport
	opt := Options{MaxInsts: 2_000, Parallel: 1}
	opt.Progress = func(done, total int, r ftsim.TrialResult) {
		if total != 33 {
			t.Errorf("total = %d, want 33", total)
		}
		labels = append(labels, r.Label)
	}
	opt.Report = func(r *ftsim.CampaignReport) { rep = r }
	if _, err := Fig5(opt); err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.TrialSeconds.N() != 33 || rep.Workers != 1 || rep.Spec != "fig5" {
		t.Fatalf("report hook: %+v", rep)
	}
	if len(labels) != 33 {
		t.Fatalf("got %d progress callbacks", len(labels))
	}
	for _, l := range labels {
		if !strings.HasPrefix(l, "fig5/") {
			t.Errorf("label %q missing experiment prefix", l)
		}
	}
}

// TestCheckpointResume drives the ftexp -checkpoint/-resume path: a
// Fig6 campaign cancelled after five trials leaves a journal that is
// refused without Resume, resumes to rows identical to an uninterrupted
// run's, and is refused once the instruction budget changes.
func TestCheckpointResume(t *testing.T) {
	base := Options{MaxInsts: 3_000, FaultSeed: 3, Parallel: 1, CheckpointDir: t.TempDir()}
	control := base
	control.CheckpointDir = ""
	want, err := Fig6("fpppp", control)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := base
	killed.Context = ctx
	killed.Progress = func(done, _ int, _ ftsim.TrialResult) {
		if done == 5 {
			cancel()
		}
	}
	if _, err := Fig6("fpppp", killed); err == nil {
		t.Fatal("cancelled campaign reported success")
	}

	if _, err := Fig6("fpppp", base); err == nil || !strings.Contains(err.Error(), "already holds a journal") {
		t.Fatalf("rerun without Resume: err = %v, want an existing-journal refusal", err)
	}

	resume := base
	resume.Resume = true
	var rep *ftsim.CampaignReport
	resume.Report = func(r *ftsim.CampaignReport) { rep = r }
	got, err := Fig6("fpppp", resume)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed rows differ from the uninterrupted run:\n%+v\n%+v", got, want)
	}
	if rep == nil {
		t.Fatal("Report hook not called")
	}
	if rep.Resumed <= 0 || rep.Resumed >= len(rep.Results) {
		t.Fatalf("resumed %d of %d trials, want 0 < resumed < total", rep.Resumed, len(rep.Results))
	}

	changed := resume
	changed.Report = nil
	changed.MaxInsts = 4_000
	if _, err := Fig6("fpppp", changed); !errors.Is(err, ftsim.ErrCheckpointMismatch) {
		t.Fatalf("resume under a changed budget: err = %v, want ErrCheckpointMismatch", err)
	}
}
