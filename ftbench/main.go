// Command ftbench is the repository's benchmark: it times the
// simulator, a checkpointed fault-injection campaign and a sharded
// ftsimd service end to end, checks every output it timed, and in its
// traced mode splits the time across the layers the work passes
// through. README.md in this directory lists the workloads, the
// metrics and which layer metric explains which end-to-end metric.
//
//	go build -o ftbench . && ./ftbench -workload sim-window -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is the result: one JSON object with
// the keys correct, attempted, failed and metrics. Earlier lines record
// the host and the details of the run (tail percentiles, sample
// counts). Exit status is 0 whenever a result was printed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size (tests only);
	// the digests of the default seed differ between sizes.
	tiny bool
	// dir is the scratch directory for data dirs and journals.
	dir string
	// spans is where a traced run writes its spans; empty skips it.
	spans string
	// control injects one negative control (tests only): see controls.
	control string
}

// Negative controls: each plants one defect that the output checks
// must report as a failed operation.
const (
	controlCorruptProjection = "corrupt-projection"
	controlWrongDigest       = "wrong-digest"
	controlDropShard         = "drop-shard"
)

// defaultSeed is the seed whose output digests are recorded in
// goldenDigests.
const defaultSeed = 1

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, its details line and its
// operation tally.
type report struct {
	metrics   map[string]metric
	details   map[string]any
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// fail records one failed operation and why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*report, error){
	"sim-window":      runSimWindow,
	"fault-campaign":  runFaultCampaign,
	"sharded-service": runShardedService,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "sim-window | fault-campaign | sharded-service")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "timed seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "dir", "", "scratch directory (default: a fresh directory under .bench_build)")
	flag.Parse()
	o.trace = trace == 1
	if o.trace {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and writes the host, details and result
// lines to w.
func run(o options, w io.Writer) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.dir == "" {
		base := filepath.Join(".bench_build", "runs")
		if err := os.MkdirAll(base, 0o755); err != nil {
			return err
		}
		d, err := os.MkdirTemp(base, o.workload+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		o.dir = d
	}
	// Everything, checks included, must end well inside the caller's
	// limit; the context stops a hung job rather than the process.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	total0, steal0 := cpuTicks()
	rep, err := fn(ctx, o)
	if err != nil {
		return err
	}
	total1, steal1 := cpuTicks()
	rep.details["steal_frac"] = safeDiv(steal1-steal0, total1-total0)
	host := hostFacts(o)
	line, err := json.Marshal(map[string]any{"host": host, "details": rep.details, "problems": rep.problems})
	if err != nil {
		return err
	}
	res, err := json.Marshal(rep.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, res)
	return err
}

// hostFacts records what the numbers were measured on.
func hostFacts(o options) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the process's peak-RSS high-water mark, so that
// the next peakRSSMB reads the peak since now. Where the kernel refuses,
// the mark keeps counting from process start.
func resetPeakRSS() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// cpuTicks reads the host's total and steal CPU ticks from /proc/stat.
// Steal is time the hypervisor ran something else on this machine's
// CPUs; a run with much of it measured a slower host.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Sample statistics.

// quantile returns the q-quantile (0..1) of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPct is the percentile each workload reports as its tail. Each is
// the highest of p50/p75/p90/p95/p99/p99.9 that leaves at least ten
// samples beyond it in a 30-second run on the 2-CPU reference host when
// steal leaves half the jobs out (quieter); it is fixed rather than
// chosen per run, so a faster program, which completes more samples,
// does not move the tail to a higher percentile. Two exceptions:
//   - sim-window's trial tail is p95, which about ten trials exceed in
//     such a run, because p90 falls between two of the grid's trial
//     classes and jumps by a tenth from run to run;
//   - the jobs of sim-window and fault-campaign are too few: about
//     eight and twenty-five are left in such a run. Their job tail is
//     p75, which two and six of them exceed, where p90 would be set by
//     one or two.
//
// Samples beyond the percentile are recorded.
var tailPct = map[string]struct{ trial, job float64 }{
	"sim-window":      {95, 75},
	"fault-campaign":  {99, 75},
	"sharded-service": {95, 90},
}

// tail returns the p-th percentile of xs and how many samples lie
// beyond it.
func tail(xs []float64, p float64) (value float64, beyond int) {
	value = quantile(xs, p/100)
	for _, x := range xs {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// jobSample is one finished job as its user saw it.
type jobSample struct {
	d       time.Duration
	first   time.Duration // to the first trial completion
	trialMs []float64     // host time of each trial
	trials  int           // successful trials
	insts   uint64        // committed simulated instructions of those
	rssMB   float64       // the process's peak RSS during the job
	kept    float64       // share of the host's CPU time not stolen meanwhile
}

// jobMeter measures one job from its start.
type jobMeter struct {
	start time.Time
	steal stealMeter
}

// stealMeter measures the share of the host's CPU time that the
// hypervisor did not steal from a start on.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	total, steal := cpuTicks()
	return stealMeter{total, steal}
}

// kept is the share of CPU time not stolen since m started, or 1 when
// /proc/stat cannot tell.
func (m stealMeter) kept() float64 {
	total, steal := cpuTicks()
	if total <= m.total {
		return 1
	}
	return 1 - (steal-m.steal)/(total-m.total)
}

// startJob returns every free page to the kernel before it resets the
// peak-RSS mark, so that each job's peak counts from the same compact
// heap rather than from whatever garbage the last collection left. On
// that quiet heap it measures the host's speed, if no burst ran lately.
func startJob() jobMeter {
	debug.FreeOSMemory()
	hostSpeed.tick()
	resetPeakRSS()
	return jobMeter{time.Now(), startSteal()}
}

// sample closes the job at end; first is its first trial completion.
func (m jobMeter) sample(end, first time.Time, trialMs []float64, trials int, insts uint64) jobSample {
	s := jobSample{d: end.Sub(m.start), trialMs: trialMs, trials: trials, insts: insts,
		rssMB: peakRSSMB(), kept: m.steal.kept()}
	if !first.IsZero() {
		s.first = first.Sub(m.start)
	}
	return s
}

// timings is the sample set of a timed loop.
type timings struct {
	elapsed time.Duration
	jobs    []jobSample
}

func (t *timings) trials() (n int) {
	for _, j := range t.jobs {
		n += j.trials
	}
	return n
}

func (t *timings) jobMs() (out []float64) {
	for _, j := range t.jobs {
		out = append(out, ms(j.d))
	}
	return out
}

func (t *timings) trialMs() (out []float64) {
	for _, j := range t.jobs {
		out = append(out, j.trialMs...)
	}
	return out
}

// maxStolen is the share of a job's CPU time the hypervisor may take
// before the job counts as hit by steal.
const maxStolen = 0.03

// quieter returns the jobs that lost at most maxStolen of the host's
// CPU time to steal, or, when fewer than half did, the half of the jobs
// that lost least. Steal comes in bursts, and a job it hits slows by
// more than the time it lost: workers wait on each other, and on I/O
// completions that the stolen CPU was to take, so no factor corrects
// it exactly.
func (t *timings) quieter() []jobSample {
	kept := make([]float64, len(t.jobs))
	for i, j := range t.jobs {
		kept[i] = j.kept
	}
	cut := quietCut(kept)
	var out []jobSample
	for _, j := range t.jobs {
		if j.kept >= cut {
			out = append(out, j)
		}
	}
	return out
}

// quietCut is the least unstolen share a job or set-up may have and
// still be measured, given every one's share.
func quietCut(kept []float64) float64 { return min(1-maxStolen, median(kept)) }

// endToEnd fills the end-to-end metrics from a timed loop, a set-up
// time and the operation tally, over the quieter jobs (quieter). Every
// time is corrected for the host's speed (calib.go): a job's times by
// the share of CPU time not stolen while it ran, and all of them by the
// run's calibration scale.
// Throughput, like every other metric, is a median over jobs, so a
// short slow phase of a shared host moves it less than a total over
// the run would.
func (r *report) endToEnd(o options, t *timings, setupS float64) {
	k := hostSpeed.scale()
	jobs := t.quieter()
	var trialRate, instRate, firstMs, rss, trialMs, jobMs, kept []float64
	for _, j := range jobs {
		f := j.kept * k
		kept = append(kept, j.kept)
		secs := j.d.Seconds() * f
		trialRate = append(trialRate, float64(j.trials)/secs)
		instRate = append(instRate, float64(j.insts)/secs)
		firstMs = append(firstMs, ms(j.first)*f)
		rss = append(rss, j.rssMB)
		jobMs = append(jobMs, ms(j.d)*f)
		for _, x := range j.trialMs {
			trialMs = append(trialMs, x*f)
		}
	}
	r.details["wall_job_p50_ms"] = median(t.jobMs())
	r.details["wall_trial_p50_ms"] = median(t.trialMs())
	r.details["jobs_left_out_for_steal"] = len(t.jobs) - len(jobs)
	r.details["job_kept_cpu_quartiles"] = []float64{quantile(kept, 0.25), median(kept), quantile(kept, 0.75)}
	r.details["host_speed_scale"] = k
	r.details["cal_rates"] = hostSpeed.rates
	pct := tailPct[o.workload]
	trialTail, trialBeyond := tail(trialMs, pct.trial)
	jobTail, jobBeyond := tail(jobMs, pct.job)
	r.set("sim_insts_per_s", "insts/s", median(instRate))
	r.set("trials_per_s", "trials/s", median(trialRate))
	r.set("trial_p50_ms", "ms", median(trialMs))
	r.set("trial_tail_ms", "ms", trialTail)
	r.set("job_p50_ms", "ms", median(jobMs))
	r.set("job_tail_ms", "ms", jobTail)
	r.set("first_trial_p50_ms", "ms", median(firstMs))
	r.set("setup_s", "s", setupS*k)
	// The peak of a single job, median over jobs: the process-wide peak
	// is one sample of the garbage collector's timing and spreads more.
	r.set("peak_rss_mb", "MB", median(rss))
	ok := 0.0
	if r.attempted > 0 {
		ok = 1 - float64(r.failed)/float64(r.attempted)
	}
	r.set("ok_frac", "ratio", ok)
	secs := t.elapsed.Seconds()
	r.details["timed_seconds"] = secs
	r.details["run_trials_per_s"] = float64(t.trials()) / secs
	r.details["max_job_peak_rss_mb"] = quantile(rss, 1)
	r.details["trial_samples"] = len(trialMs)
	r.details["trial_tail_pct"] = pct.trial
	r.details["trial_samples_beyond_tail"] = trialBeyond
	r.details["job_samples"] = len(jobMs)
	r.details["job_tail_pct"] = pct.job
	r.details["job_samples_beyond_tail"] = jobBeyond
	r.details["failed_frac"] = 1 - ok
}

// medianSetup runs setup reps times and returns the median duration,
// each corrected for the CPU time stolen while it ran and taken over
// the quieter set-ups as jobs are (quieter), plus the last instance;
// earlier instances are closed. The wall-clock durations go to the
// details line.
func medianSetup[T any](rep *report, reps int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var wall, kept []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(last)
		}
		start, steal := time.Now(), startSteal()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		wall = append(wall, time.Since(start).Seconds())
		kept = append(kept, steal.kept())
		last = v
	}
	cut := quietCut(kept)
	var secs []float64
	for i := range wall {
		if kept[i] >= cut {
			secs = append(secs, wall[i]*kept[i])
		}
	}
	rep.details["setup_s_reps"] = wall
	rep.details["wall_setup_s"] = median(wall)
	return last, median(secs), nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 11
