package ftsim

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/campaign"
)

// Trial is one point of a RunCampaign grid: a machine description
// paired with the workload it simulates.
type Trial struct {
	// Label names the trial in progress reports and the error manifest.
	Label string
	// Config is the machine description the trial simulates. When fault
	// injection is enabled, its seed is overwritten with the trial's
	// derived campaign seed.
	Config Config
	// Program is the workload; the same *Program may back any number of
	// trials.
	Program *Program
}

// Campaign result types, re-exported from the engine (the same
// pattern as Stats): the facade adds no translation layer.
type (
	// CampaignReport is a completed campaign: per-trial results in grid
	// order, wall-time aggregates, the resumed-trial count, and the
	// error manifest via Failures.
	CampaignReport = campaign.Report
	// TrialResult is the outcome of one trial.
	TrialResult = campaign.Result
	// TrialFailure is one entry of the campaign error manifest.
	TrialFailure = campaign.TrialFailure
	// CampaignProgress observes trial completions as they happen.
	CampaignProgress = campaign.Progress
)

// Campaign error taxonomy, re-exported for errors.Is tests.
var (
	// ErrTrialPanic: a trial panicked; the panic was contained to that
	// trial and converted to this error.
	ErrTrialPanic = campaign.ErrTrialPanic
	// ErrTrialTimeout: a trial exceeded the WithTrialTimeout deadline.
	ErrTrialTimeout = campaign.ErrTrialTimeout
	// ErrCheckpointMismatch: a checkpoint journal belongs to a
	// different campaign (name, seed, grid, or configuration changed)
	// and cannot be resumed.
	ErrCheckpointMismatch = campaign.ErrCheckpointMismatch
	// ErrTransient marks a trial error as retryable under WithRetry.
	ErrTransient = campaign.ErrTransient
)

// CampaignOption configures RunCampaign.
type CampaignOption func(*campaignOpts)

type campaignOpts struct {
	workers      int
	seed         int64
	progress     campaign.Progress
	observer     TrialObserver
	observeEvery uint64
	checkpoint   string
	flushEvery   int
	trialTimeout time.Duration
	retries      int
	backoff      time.Duration
	failFast     bool
	metrics      *campaign.Metrics
	seedIndex    func(int) int
}

// WithWorkers sets the worker-pool size (0 = GOMAXPROCS, 1 = serial).
// Results are identical for any value.
func WithWorkers(n int) CampaignOption {
	return func(o *campaignOpts) { o.workers = n }
}

// WithCampaignSeed sets the campaign master seed every per-trial fault
// seed derives from; the default is 1.
func WithCampaignSeed(seed int64) CampaignOption {
	return func(o *campaignOpts) { o.seed = seed }
}

// WithSeedIndex maps trial i to the grid index its fault seed derives
// from (nil, the default, is the identity). Two uses:
//
//   - seed groups: trials mapped to one index see the identical fault
//     stream, so a row comparing designs (R=2 vs R=3 at one fault rate)
//     measures the designs, not the RNG draws;
//   - shards: a coordinator dispatches trials [off, off+n) of a parent
//     grid as a shard-local grid [0, n) with func(i int) int { return
//     off + i }, and the merged statistics come out byte-identical to
//     one daemon running the whole range.
func WithSeedIndex(fn func(i int) int) CampaignOption {
	return func(o *campaignOpts) { o.seedIndex = fn }
}

// WithCampaignProgress streams trial completions to fn (serialised, in
// completion order).
func WithCampaignProgress(fn CampaignProgress) CampaignOption {
	return func(o *campaignOpts) { o.progress = fn }
}

// TrialObserver receives the Interval samples of every running trial of
// a campaign, tagged with the trial's grid index and label. Distinct
// trials run on distinct workers concurrently, so the observer must be
// safe for concurrent use; like a session Observer it is a pure tap —
// observation never changes results — and must not block for long.
type TrialObserver func(trial int, label string, iv Interval)

// WithCampaignObserver streams per-interval progress of every trial to
// fn while the campaign runs — the live feed a dashboard or a campaign
// service forwards to clients. Samples arrive at the WithObserveEvery
// period of each trial (DefaultObserveEvery unless
// WithCampaignObserveEvery overrides it), plus one Final sample per
// trial.
func WithCampaignObserver(fn TrialObserver) CampaignOption {
	return func(o *campaignOpts) { o.observer = fn }
}

// WithCampaignObserveEvery sets the observation period, in simulated
// cycles, of the WithCampaignObserver stream.
func WithCampaignObserveEvery(cycles uint64) CampaignOption {
	return func(o *campaignOpts) { o.observeEvery = cycles }
}

// WithCheckpoint journals completed trials to the file at path and
// resumes from it when it already holds a matching campaign's records.
// A journal written by a different campaign fails with
// ErrCheckpointMismatch rather than silently mixing grids.
func WithCheckpoint(path string) CampaignOption {
	return func(o *campaignOpts) { o.checkpoint = path }
}

// WithCheckpointFlushEvery sets the journal's fsync batch size: the
// checkpoint is synced to stable storage after every n completed
// trials (default 32). 1 makes every trial durable the moment it
// completes — what a long-lived campaign service wants — at the cost
// of one fsync per trial.
func WithCheckpointFlushEvery(n int) CampaignOption {
	return func(o *campaignOpts) { o.flushEvery = n }
}

// WithTrialTimeout bounds each trial attempt with a per-trial deadline
// (delivered through the trial's context into the pipeline loop); an
// attempt exceeding it fails with ErrTrialTimeout.
func WithTrialTimeout(d time.Duration) CampaignOption {
	return func(o *campaignOpts) { o.trialTimeout = d }
}

// WithRetry re-attempts retryable trial failures (ErrTransient,
// ErrTrialTimeout) up to retries additional times, waiting backoff
// before the first retry and doubling it for each subsequent one
// (backoff <= 0 selects a 50ms default).
func WithRetry(retries int, backoff time.Duration) CampaignOption {
	return func(o *campaignOpts) { o.retries = retries; o.backoff = backoff }
}

// WithFailFast disables fault containment: the first trial failure
// cancels the rest of the grid, as a quick-look sweep wants. Without
// it, every trial runs and failures accumulate in the error manifest.
func WithFailFast() CampaignOption {
	return func(o *campaignOpts) { o.failFast = true }
}

// RunCampaign executes a grid of independent simulation trials across
// a worker pool, with the durability and fault-containment guarantees
// of the campaign engine:
//
//   - results are deterministic: per-trial fault seeds derive from the
//     campaign seed and trial index, never from scheduling, so any
//     worker count produces identical statistics;
//   - trial failures are contained by default: a panicking or failing
//     trial is recorded in the report's error manifest
//     (CampaignReport.Failures) while the rest of the grid completes
//     (WithFailFast restores abort-on-first-failure); and
//   - with WithCheckpoint, completed trials are journaled to disk and
//     a re-run over the same journal resumes, skipping finished
//     trials — a campaign killed mid-grid loses at most one fsync
//     batch of results, and its resumed aggregate statistics are
//     identical to an uninterrupted run's.
//
// Machines are pooled per worker, so trial cost is dominated by
// simulation, not construction. The returned error summarises trial
// failures (the report still carries every completed result — partial
// results are the point of containment) or reports a campaign-level
// failure (cancellation, checkpoint mismatch, journal I/O). Extract
// per-trial statistics in grid order with CollectStats.
func RunCampaign(ctx context.Context, name string, trials []Trial, opts ...CampaignOption) (*CampaignReport, error) {
	o := campaignOpts{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	specTrials := make([]campaign.Trial, len(trials))
	for i := range trials {
		t := trials[i]
		if t.Program == nil {
			return nil, fmt.Errorf("%w: trial %d (%s): nil program", ErrInvalidConfig, i, t.Label)
		}
		m, err := NewFromConfig(t.Config)
		if err != nil {
			return nil, fmt.Errorf("trial %d (%s): %w", i, t.Label, err)
		}
		idx := i
		specTrials[i] = campaign.Trial{
			Label: t.Label,
			RunW: func(ctx context.Context, ws *campaign.Workspace, seed int64) (any, error) {
				run := *m // the seed override must not leak across trials
				if run.cfg.Fault.Enabled() {
					run.cfg.Fault.Seed = seed
				}
				if o.observer != nil {
					run.obs = ObserverFunc(func(iv Interval) { o.observer(idx, t.Label, iv) })
					run.every = o.observeEvery
				}
				return run.RunPooled(ctx, campaignPool(ws), t.Program)
			},
		}
	}
	runner := campaign.Runner{
		Workers:      o.workers,
		Progress:     o.progress,
		Contain:      !o.failFast,
		TrialTimeout: o.trialTimeout,
		Retries:      o.retries,
		RetryBackoff: o.backoff,
		Metrics:      o.metrics,
	}
	if o.checkpoint != "" {
		hash, err := campaignHash(trials)
		if err != nil {
			return nil, err
		}
		runner.Checkpoint = &campaign.Checkpoint{
			Path:       o.checkpoint,
			Hash:       hash,
			Encode:     encodeStatsValue,
			Decode:     decodeStatsValue,
			FlushEvery: o.flushEvery,
		}
	}
	spec := campaign.Spec{Name: name, Seed: o.seed, SeedIndex: o.seedIndex, Trials: specTrials}
	return runner.Run(ctx, spec)
}

// CollectStats extracts the per-trial statistics in grid order. Trials
// that failed (or never ran) yield an error naming the first offender;
// use the report's Results and Failures directly when partial results
// are wanted.
func CollectStats(rep *CampaignReport) ([]*Stats, error) {
	return campaign.Collect[*Stats](rep)
}

// campaignHash fingerprints everything that changes trial outcomes —
// labels, full normalized machine configurations, workload identities —
// so a checkpoint journal can refuse to resume a changed campaign.
func campaignHash(trials []Trial) (uint64, error) {
	h := fnv.New64a()
	for _, t := range trials {
		io.WriteString(h, t.Label)
		h.Write([]byte{0})
		io.WriteString(h, t.Program.Name())
		h.Write([]byte{0})
		js, err := t.Config.Normalized().JSON()
		if err != nil {
			return 0, err
		}
		h.Write(js)
		h.Write([]byte{0})
	}
	return h.Sum64(), nil
}

// encodeStatsValue / decodeStatsValue are the checkpoint codec for
// trial values: Stats is flat counters (uint64s, float64s and a uint64
// slice), all of which encoding/json round-trips exactly, so resumed
// aggregates stay bit-identical to an uninterrupted run's.
func encodeStatsValue(v any) ([]byte, error) {
	st, ok := v.(*Stats)
	if !ok {
		return nil, fmt.Errorf("ftsim: campaign checkpoint: trial value is %T, want *Stats", v)
	}
	return json.Marshal(st)
}

func decodeStatsValue(data []byte) (any, error) {
	st := new(Stats)
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("ftsim: campaign checkpoint: %w", err)
	}
	return st, nil
}

// campaignPoolKey indexes the per-worker machine pool in a Workspace.
type campaignPoolKey struct{}

// campaignPool returns the worker's machine pool, creating it on first
// use.
func campaignPool(ws *campaign.Workspace) *MachinePool {
	if v := ws.Value(campaignPoolKey{}); v != nil {
		return v.(*MachinePool)
	}
	p := new(MachinePool)
	ws.Set(campaignPoolKey{}, p)
	return p
}
