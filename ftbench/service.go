package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/ftsim"
	"repro/ftsim/api"
	"repro/ftsim/client"
	"repro/internal/coord"
	"repro/internal/server"
)

// daemon is one in-process ftsimd on a loopback port.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startDaemon(cfg server.Config) (*daemon, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: s, http: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close drains the daemon's jobs, then closes its listener and every
// connection, and waits for the serve loop to return.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx) // a timeout here still closes the listener below
	d.http.Close()
	<-d.done
}

// scrape sums the daemon's /metrics families.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parsePrometheus(string(body)), nil
}

// serviceWorkers is the fleet size. Each worker runs one job at a time
// on one simulation goroutine, so the cluster uses both CPUs of the
// 2-CPU reference host.
const serviceWorkers = 2

// cluster is a coordinator ftsimd in front of serviceWorkers worker
// ftsimds, each with its own data dir, all at default probe, retry and
// backoff settings, plus the one client that drives them.
type cluster struct {
	workers []*daemon
	coord   *coord.Coordinator
	front   *daemon
	client  *client.Client
	jobs    int // jobs served, warm-up included
}

func startCluster(ctx context.Context, dir string) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var urls []string
	for i := 0; i < serviceWorkers; i++ {
		d, err := startDaemon(server.Config{
			DataDir:       filepath.Join(dir, fmt.Sprintf("worker%d", i)),
			WorkersPerJob: 1,
		})
		if err != nil {
			return c, err
		}
		c.workers = append(c.workers, d)
		urls = append(urls, d.url)
	}
	reg := ftsim.NewMetricsRegistry()
	if c.coord, err = coord.New(coord.Config{Workers: urls, Registry: reg}); err != nil {
		return c, err
	}
	if c.front, err = startDaemon(server.Config{DataDir: filepath.Join(dir, "coord"), Backend: c.coord, Registry: reg}); err != nil {
		return c, err
	}
	c.client = &client.Client{BaseURL: c.front.url}
	return c, nil
}

func (c *cluster) close() {
	if c.front != nil {
		c.front.close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	for _, w := range c.workers {
		w.close()
	}
}

// scrapeAll sums each metric family over every daemon of the cluster.
func (c *cluster) scrapeAll(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range append([]*daemon{c.front}, c.workers...) {
		m, err := d.scrape(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// serviceTrials is the grid size of one sharded-service job.
const serviceTrials = 8

// genJob draws one job: serviceTrials fault-injected SS2/SS3 trials on
// random Table 2 programs, with a random campaign seed.
func genJob(rng *rand.Rand, o options, name string) *api.CampaignRequest {
	insts := uint64(4_000)
	if o.tiny {
		insts = 500
	}
	names := ftsim.Benchmarks()
	req := &api.CampaignRequest{Name: name, Seed: rng.Int63n(1<<40) + 1}
	for i := 0; i < serviceTrials; i++ {
		cfg := []ftsim.Model{ftsim.ModelSS2, ftsim.ModelSS3}[rng.Intn(2)].Config()
		cfg.MaxInsts = insts
		cfg.Fault.Rate = faultRates[1+rng.Intn(len(faultRates)-1)]
		cfg.Fault.Targets = ftsim.AllFaultTargets()
		req.Trials = append(req.Trials, api.TrialSpec{Benchmark: names[rng.Intn(len(names))], Config: cfg})
	}
	return req
}

// svcJob is one job as the client saw it.
type svcJob struct {
	req                   *api.CampaignRequest
	final                 *api.JobStatus
	stats                 []*ftsim.Stats
	meter                 jobMeter
	first, done           time.Time
	events, intervals     int
	trials                []trialEvent
	trialErrs             int
	err                   error
	watchSpan             int
	reqBytes, statusBytes int
	encodeUs, parseUs     float64
	submitMs, decodeMs    float64
}

// trialEvent is one trial-completion event as received.
type trialEvent struct {
	trial   int
	seconds float64
	at      time.Time
}

// job runs one job through the cluster the way ftsimc submit + watch
// does: Submit, Watch to the done event, decode the merged Stats.
func (c *cluster) job(ctx context.Context, o options, tr *tracer, req *api.CampaignRequest) *svcJob {
	j := &svcJob{req: req}
	trace := req.Name
	if tr != nil {
		// The wire cost of the request: the client's encoding and the
		// daemon's parse, repeated here on the same body.
		t0 := time.Now()
		body, err := json.Marshal(req)
		t1 := time.Now()
		if err == nil {
			_, err = api.ParseSubmission(body)
		}
		t2 := time.Now()
		if err != nil {
			j.err = err
			return j
		}
		tr.add(0, trace, layerAPI, "encode", t0, t1)
		tr.add(0, trace, layerAPI, "ParseSubmission", t1, t2)
		j.reqBytes = len(body)
		j.encodeUs = float64(t1.Sub(t0)) / 1e3
		j.parseUs = float64(t2.Sub(t1)) / 1e3
	}
	j.meter = startJob()
	root, endRoot := tr.open(0, trace, layerClient, "job")
	defer endRoot()
	_, endSubmit := tr.open(root, trace, layerClient, "Submit")
	st, err := c.client.Submit(ctx, req)
	endSubmit()
	j.submitMs = ms(time.Since(j.meter.start))
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	var endWatch func()
	j.watchSpan, endWatch = tr.open(root, trace, layerSSE, "Watch")
	err = c.client.Watch(ctx, st.ID, 0, func(ev api.Event) error {
		now := time.Now()
		j.events++
		switch ev.Type {
		case api.EventInterval:
			j.intervals++
		case api.EventTrial:
			if j.first.IsZero() {
				j.first = now
			}
			j.trials = append(j.trials, trialEvent{ev.Trial, ev.Seconds, now})
			if ev.Err != "" {
				j.trialErrs++
			}
		case api.EventDone:
			j.final, j.done = ev.Status, now
		}
		return nil
	})
	endWatch()
	if err != nil {
		j.err = fmt.Errorf("watch %s: %w", st.ID, err)
		return j
	}
	if j.final == nil || j.final.State != api.StateDone {
		j.err = fmt.Errorf("job %s ended %+v", st.ID, j.final)
		return j
	}
	if tr != nil {
		if b, err := json.Marshal(j.final); err == nil {
			j.statusBytes = len(b)
		}
	}
	t := time.Now()
	err = json.Unmarshal(j.final.Stats, &j.stats)
	decoded := time.Now()
	j.decodeMs = ms(decoded.Sub(t))
	tr.add(root, trace, layerAPI, "decode stats", t, decoded)
	if err != nil {
		j.err = fmt.Errorf("decoding stats: %w", err)
	} else if len(j.stats) != len(req.Trials) {
		j.err = fmt.Errorf("job %s returned %d stats for %d trials", st.ID, len(j.stats), len(req.Trials))
	}
	return j
}

// svcRun is a timed closed loop of jobs, possibly across several
// clusters.
type svcRun struct {
	timings
	prefix       string // job-name prefix, which is also the jobs' trace id
	seq          int
	svcJobs      []*svcJob
	failedTrials int
	// Traced runs only: the worker sub-jobs of each job, by job name,
	// and the cluster-wide /metrics deltas summed over every cluster.
	subs     map[string][]*api.JobStatus
	counters map[string]float64
}

func newSvcRun(prefix string) *svcRun {
	return &svcRun{prefix: prefix, subs: map[string][]*api.JobStatus{}, counters: map[string]float64{}}
}

// jobsPerCluster bounds the jobs one cluster serves before it is
// replaced. A daemon keeps every finished job, with the programs it
// built, in memory (several MB per job), so an unbounded loop would
// grow without limit; the bound keeps peak RSS independent of run
// length and throughput.
const jobsPerCluster = 25

// segment runs jobs drawn from rng on c, one at a time, until budget
// has passed (at least one job) or c has served jobsPerCluster jobs.
func (c *cluster) segment(ctx context.Context, o options, rep *report, tr *tracer, rng *rand.Rand, run *svcRun, budget time.Duration) error {
	var before map[string]float64
	var err error
	if tr != nil {
		if before, err = c.scrapeAll(ctx); err != nil {
			return err
		}
	}
	start := time.Now()
	for n := 0; n == 0 || (time.Since(start) < budget && c.jobs < jobsPerCluster); n++ {
		c.jobs++
		run.seq++
		j := c.job(ctx, o, tr, genJob(rng, o, run.prefix+strconv.Itoa(run.seq)))
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rep.attempted++
		run.failedTrials += j.trialErrs
		if j.err == nil && j.trialErrs > 0 {
			j.err = fmt.Errorf("%d trials failed", j.trialErrs)
		}
		if j.err != nil {
			rep.fail("%s: %v", j.req.Name, j.err)
			continue
		}
		run.svcJobs = append(run.svcJobs, j)
		var trialMs []float64
		for _, t := range j.trials {
			trialMs = append(trialMs, t.seconds*1000)
		}
		var insts uint64
		for _, st := range j.stats {
			insts += st.Committed
		}
		run.jobs = append(run.jobs, j.meter.sample(j.done, j.first, trialMs, len(j.stats), insts))
	}
	run.elapsed += time.Since(start)
	if tr == nil {
		return nil
	}
	after, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	for k, v := range after {
		run.counters[k] += v - before[k]
	}
	// Sub-jobs are named "<job>[lo:hi]" by the coordinator.
	subs := map[string][]*api.JobStatus{}
	for _, w := range c.workers {
		list, err := w.client().List(ctx)
		if err != nil {
			return err
		}
		for _, st := range list {
			if i := strings.IndexByte(st.Name, '['); i > 0 && st.State == api.StateDone {
				subs[st.Name[:i]] = append(subs[st.Name[:i]], st)
			}
		}
	}
	for k, v := range subs {
		run.subs[k] = v
	}
	return nil
}

// serve runs the closed loop for dur of timed time, starting on *c and
// replacing the cluster, outside the timed window, whenever it has
// served jobsPerCluster jobs.
func serve(ctx context.Context, o options, rep *report, tr *tracer, rng *rand.Rand, c **cluster, prefix string, dur time.Duration) (*svcRun, error) {
	run := newSvcRun(prefix)
	for run.elapsed == 0 || run.elapsed < dur {
		if (*c).jobs >= jobsPerCluster {
			(*c).close()
			nc, err := setupCluster(ctx, o)
			if err != nil {
				*c = &cluster{}
				return nil, err
			}
			*c = nc
		}
		if err := (*c).segment(ctx, o, rep, tr, rng, run, dur-run.elapsed); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// checkService verifies the seed's first job (of first) and sampled
// jobs of run. Each job's merged sharded Stats must be byte-identical to
// the same request run unsharded in-process, and its trials must
// reproduce on a fresh machine with the oracle on: every trial of the
// first job, whose projections and escapes are digested, and two of
// each sampled job.
func checkService(ctx context.Context, o options, rep *report, first, run *svcRun) error {
	var jobs []*svcJob
	if len(first.svcJobs) > 0 {
		jobs = append(jobs, first.svcJobs[0])
	}
	for _, ji := range sample(o.seed, len(run.svcJobs), 3) {
		jobs = append(jobs, run.svcJobs[ji])
	}
	var rs []rerun
	var firstPs []projection
	for n, j := range jobs {
		trials, err := requestTrials(j.req)
		if err != nil {
			return err
		}
		rep.attempted++
		cr, err := ftsim.RunCampaign(ctx, j.req.Name, trials,
			ftsim.WithWorkers(inprocWorkers), ftsim.WithCampaignSeed(j.req.Seed))
		if err != nil {
			rep.fail("%s unsharded: %v", j.req.Name, err)
			continue
		}
		local, err := ftsim.CollectStats(cr)
		if err != nil {
			return err
		}
		want, err := json.Marshal(local)
		if err != nil {
			return err
		}
		got := []byte(j.final.Stats)
		if o.control == controlDropShard {
			if got, err = dropLastShard(got); err != nil {
				return err
			}
		}
		if !bytes.Equal(got, want) {
			rep.fail("%s: sharded stats differ from the unsharded run", j.req.Name)
			continue
		}
		picks := sample(o.seed+int64(n), len(trials), 2)
		if n == 0 && len(first.svcJobs) > 0 {
			picks = nil
			for ti, st := range j.stats {
				picks = append(picks, ti)
				firstPs = append(firstPs, project(st))
			}
		}
		for _, ti := range picks {
			t := trials[ti]
			rs = append(rs, rerun{
				label: j.req.Name + "/" + t.Label, cfg: t.Config, prog: t.Program,
				seed: cr.Results[ti].Seed, timed: project(j.stats[ti]), escapes: t.Config.R >= 2,
			})
		}
	}
	escapes, err := verifyReruns(ctx, o, rep, rs)
	if err != nil {
		return err
	}
	checkDigest(o, rep, firstPs, escapes[:len(firstPs)])
	return nil
}

// requestTrials rebuilds a request's grid as the daemon resolves it.
func requestTrials(req *api.CampaignRequest) ([]ftsim.Trial, error) {
	out := make([]ftsim.Trial, len(req.Trials))
	for i, ts := range req.Trials {
		p, err := ftsim.Benchmark(ts.Benchmark)
		if err != nil {
			return nil, err
		}
		out[i] = ftsim.Trial{Label: fmt.Sprintf("%d/%s", i, ts.Benchmark), Config: ts.Config.Normalized(), Program: p}
	}
	return out, nil
}

// dropLastShard removes the second worker's shard from merged stats:
// the negative control for the sharded≡unsharded check.
func dropLastShard(stats []byte) ([]byte, error) {
	var parts []json.RawMessage
	if err := json.Unmarshal(stats, &parts); err != nil {
		return nil, err
	}
	return json.Marshal(parts[:len(parts)/serviceWorkers])
}

// warmJobs is how many jobs a cluster runs during set-up.
const warmJobs = 2

// setupCluster starts a cluster in a fresh directory and runs warm-up
// jobs drawn from their own generator, so the timed jobs are the same
// for a seed however often set-up runs.
func setupCluster(ctx context.Context, o options) (*cluster, error) {
	dir, err := os.MkdirTemp(o.dir, "cluster-")
	if err != nil {
		return nil, err
	}
	c, err := startCluster(ctx, dir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(^o.seed))
	for i := 0; i < warmJobs; i++ {
		c.jobs++
		if j := c.job(ctx, o, nil, genJob(rng, o, fmt.Sprintf("warm-%d", i))); j.err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up job: %w", j.err)
		}
	}
	return c, nil
}

func runShardedService(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	c, setupS, err := medianSetup(rep, setupReps, func() (*cluster, error) { return setupCluster(ctx, o) }, (*cluster).close)
	if err != nil {
		return nil, err
	}
	defer func() { c.close() }()
	rng := rand.New(rand.NewSource(o.seed))
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		run, err := serve(ctx, o, rep, nil, rng, &c, "job-", dur)
		if err != nil {
			return nil, err
		}
		if err := checkService(ctx, o, rep, run, run); err != nil {
			return nil, err
		}
		rep.endToEnd(o, &run.timings, setupS)
		return rep, nil
	}

	untraced, err := serve(ctx, o, rep, nil, rng, &c, "untraced-job-", dur/2)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	traced, err := serve(ctx, o, rep, tr, rng, &c, "job-", dur/2)
	if err != nil {
		return nil, err
	}
	if err := checkService(ctx, o, rep, untraced, traced); err != nil {
		return nil, err
	}
	rep.traceOverhead(&untraced.timings, &traced.timings)
	if err := probeLayers(ctx, o, rep, tr, false); err != nil {
		return nil, err
	}
	subjobs, err := serviceLayers(rep, tr, traced)
	if err != nil {
		return nil, err
	}
	// The campaign and cpu layers as the workers ran them (one
	// simulation goroutine per worker job).
	var cycles, committed, occ, rewinds uint64
	var trialSecs, runSecs, tails []float64
	for _, j := range traced.svcJobs {
		for _, st := range j.stats {
			cycles += st.Cycles
			committed += st.Committed
			occ += st.RUUOccupancy
			rewinds += st.FaultRewinds
		}
		for _, t := range j.trials {
			trialSecs = append(trialSecs, t.seconds)
		}
	}
	for _, sj := range subjobs {
		runSecs = append(runSecs, sj.run.Seconds())
		if sj.tailS > 0 {
			tails = append(tails, sj.tailS)
		}
	}
	jobs := float64(len(traced.svcJobs))
	rep.set("campaign.trial_ms", "ms", 1000*median(trialSecs))
	rep.set("campaign.busy_frac", "ratio", safeDiv(sum(trialSecs), sum(runSecs)))
	rep.set("campaign.tail_s", "s", median(tails))
	rep.set("campaign.ckpt_syncs", "count", traced.counters["ftsim_checkpoint_syncs_total"]/jobs)
	rep.set("campaign.ckpt_bytes", "B", traced.counters["ftsim_checkpoint_synced_bytes_total"]/jobs)
	rep.set("campaign.retries", "count", traced.counters["ftsim_trial_retries_total"])
	rep.set("campaign.failed_trials", "count", float64(traced.failedTrials))
	rep.simLayer(cycles, committed, occ, rewinds)
	return rep, rep.finishTrace(o, tr)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subjob is one worker sub-job of a coordinator job.
type subjob struct {
	lo, hi     int
	queue, run time.Duration
	whole      time.Duration // submitted to finished: the shard as dispatched
	tailS      float64       // finish minus the second-to-last trial completion
}

// serviceLayers rebuilds each traced job's coordinator and worker spans
// from the JobStatus timestamps and reports the api, client, server,
// sse and coord metrics. It returns the worker sub-jobs it found. The
// ftsim probe must have run: its pool overhead splits the trial spans.
func serviceLayers(rep *report, tr *tracer, run *svcRun) ([]subjob, error) {
	var (
		reqBytes, encUs, parseUs, statusBytes, decMs, submitMs []float64
		queueMs, wQueueMs, wRunMs, finishMs, shardMs, ovhMs    []float64
		skew, events, intervals                                []float64
		trialSecs, runSecs                                     float64
		subjobs                                                []subjob
		trials                                                 []trialSpan
	)
	for _, j := range run.svcJobs {
		f := j.final
		trace := j.req.Name
		shards := run.subs[trace]
		if f.Started == nil || f.Finished == nil || len(shards) == 0 {
			return nil, fmt.Errorf("%s: no timestamps or worker sub-jobs to rebuild spans from", trace)
		}
		reqBytes = append(reqBytes, float64(j.reqBytes))
		encUs = append(encUs, j.encodeUs)
		parseUs = append(parseUs, j.parseUs)
		statusBytes = append(statusBytes, float64(j.statusBytes))
		decMs = append(decMs, j.decodeMs)
		submitMs = append(submitMs, j.submitMs)
		events = append(events, float64(j.events))
		intervals = append(intervals, float64(j.intervals))
		queueMs = append(queueMs, ms(f.Started.Sub(f.Submitted)))
		finishMs = append(finishMs, ms(j.done.Sub(*f.Finished)))
		tr.add(j.watchSpan, trace, layerServer, "coord queue", f.Submitted, *f.Started)
		coordSpan := tr.add(j.watchSpan, trace, layerCoord, "coord run", *f.Started, *f.Finished)
		tr.add(j.watchSpan, trace, layerSSE, "done delivery", *f.Finished, j.done)

		var slowest, fastest time.Duration
		for _, s := range shards {
			if s.Started == nil || s.Finished == nil {
				continue
			}
			sj := subjob{queue: s.Started.Sub(s.Submitted), run: s.Finished.Sub(*s.Started), whole: s.Finished.Sub(s.Submitted)}
			fmt.Sscanf(s.Name[strings.IndexByte(s.Name, '['):], "[%d:%d]", &sj.lo, &sj.hi)
			wQueueMs = append(wQueueMs, ms(sj.queue))
			wRunMs = append(wRunMs, ms(sj.run))
			shardMs = append(shardMs, ms(sj.whole))
			runSecs += sj.run.Seconds()
			slowest = max(slowest, sj.whole)
			if fastest == 0 || sj.whole < fastest {
				fastest = sj.whole
			}
			span := tr.add(coordSpan, trace, layerServer, "worker job", s.Submitted, *s.Finished)
			tr.add(span, trace, layerServer, "worker queue", s.Submitted, *s.Started)
			// Trial spans end when the client received the completion
			// event: the trial's host time, shifted by the event relay.
			var done []time.Time
			for _, t := range j.trials {
				if t.trial >= sj.lo && t.trial < sj.hi {
					start := t.at.Add(-time.Duration(t.seconds * 1e9))
					id := tr.add(span, trace, layerFtsim, "RunPooled", start, t.at)
					trials = append(trials, trialSpan{id, trace, start, t.at})
					trialSecs += t.seconds
					done = append(done, t.at)
				}
			}
			if len(done) >= 2 {
				sj.tailS = s.Finished.Sub(done[len(done)-2]).Seconds()
			}
			subjobs = append(subjobs, sj)
		}
		ovhMs = append(ovhMs, ms(f.Finished.Sub(*f.Started)-slowest))
		if fastest > 0 {
			skew = append(skew, float64(slowest)/float64(fastest))
		}
	}
	jobs := float64(len(run.svcJobs))
	rep.set("api.request_bytes", "B", median(reqBytes))
	rep.set("api.encode_request_us", "us", median(encUs))
	rep.set("api.parse_submission_us", "us", median(parseUs))
	rep.set("api.status_bytes", "B", median(statusBytes))
	rep.set("api.decode_stats_ms", "ms", median(decMs))
	rep.set("client.submit_ms", "ms", median(submitMs))
	rep.set("server.queue_wait_ms", "ms", median(queueMs))
	rep.set("server.worker_queue_wait_ms", "ms", median(wQueueMs))
	rep.set("server.worker_run_ms", "ms", median(wRunMs))
	rep.set("server.worker_sim_frac", "ratio", safeDiv(trialSecs, runSecs))
	rep.set("server.finish_to_client_ms", "ms", median(finishMs))
	rep.set("server.ckpt_syncs_per_job", "count", run.counters["ftsim_checkpoint_syncs_total"]/jobs)
	rep.set("sse.events_per_job", "count", sum(events)/jobs)
	rep.set("sse.interval_events_per_job", "count", sum(intervals)/jobs)
	rep.set("sse.dropped_interval", "count", run.counters["ftsimd_sse_dropped_interval_events_total"])
	rep.set("coord.shard_ms", "ms", median(shardMs))
	rep.set("coord.overhead_ms", "ms", median(ovhMs))
	rep.set("coord.shard_skew", "ratio", median(skew))
	rep.set("coord.redispatches", "count", run.counters["ftsimd_coord_shard_redispatches_total"])
	splitTrials(rep, tr, trials)
	return subjobs, nil
}

// client returns a client bound to one daemon.
func (d *daemon) client() *client.Client { return &client.Client{BaseURL: d.url} }
