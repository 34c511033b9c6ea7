package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Host-speed correction.
//
// A shared host does not run at one speed, and the same program can
// take twice as long in one run as in a run ten minutes later. Two
// things slow it, and the benchmark takes each out of every end-to-end
// time it reports:
//
//   - The hypervisor gives this machine's CPUs to other guests for
//     seconds at a time. The kernel counts that time as steal in
//     /proc/stat. Each job's wall time is multiplied by the share of
//     the CPU time that was not stolen while it ran (jobMeter).
//   - Guests on the same cores take cache, memory bandwidth and power
//     for minutes, so a CPU-second does less work. A fixed reference
//     kernel that uses no code of the repository runs in short bursts
//     between jobs and counts its work per CPU-second of its own
//     threads, which leaves steal out. Every time of a run is
//     multiplied by the median burst rate over calRefRate.
//
// The corrected figures read as times on a host where nothing is
// stolen and the kernel runs at calRefRate. The wall-clock medians,
// the steal shares and the burst rates are in the details line.

// calWorkers is how many goroutines run the kernel in a burst, as many
// as the workloads simulate on at once.
const calWorkers = inprocWorkers

// A calibration burst runs the kernel for calWarm, which brings its
// table back into cache after a job, and then measures it for
// calBurst. calEvery is the shortest gap between bursts between jobs,
// so bursts take under 3% of a run.
const (
	calWarm  = 5 * time.Millisecond
	calBurst = 20 * time.Millisecond
	calEvery = time.Second
)

// calRefRate is about the kernel's rate, in chunks per CPU-second, on
// the 2-CPU host the figures in README.md were taken on. It only sets
// the scale of the reported times.
const calRefRate = 75_000

// calTableBits sizes the kernel's table (256 KiB of uint32), about the
// size of the simulator's hot per-machine state, so the kernel feels
// cache pressure as the simulator does.
const calTableBits = 16

// calKernel is the reference computation: a dependent, data-driven walk
// with loads, stores and unpredictable branches over its table. The
// walk rewrites the table, so every burst starts from the same table
// and state, and each burst's work is the same instruction stream.
type calKernel struct {
	init, t []uint32
	seed, x uint32
}

func newCalKernel(seed uint32) *calKernel {
	k := &calKernel{init: make([]uint32, 1<<calTableBits), t: make([]uint32, 1<<calTableBits), seed: seed | 1}
	for i := range k.init {
		k.init[i] = uint32(i)*2654435761 ^ seed
	}
	return k
}

// reset puts the kernel back at the start of its walk.
func (k *calKernel) reset() {
	copy(k.t, k.init)
	k.x = k.seed
}

// chunk runs one unit of reference work (a few microseconds).
func (k *calKernel) chunk() {
	const mask = 1<<calTableBits - 1
	x := k.x
	for i := uint32(0); i < 1024; i++ {
		v := k.t[x&mask]
		if v&3 == 0 {
			x = x*1664525 + v + 1013904223
		} else {
			x ^= v>>3 + i
		}
		k.t[(x>>11)&mask] += x
	}
	k.x = x
}

// threadCPU is the CPU time the calling OS thread has used; the kernel
// leaves stolen time out of it.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSpeed is the process's calibrator.
var hostSpeed = newCalibrator()

// calibrator runs the bursts and keeps their rates.
type calibrator struct {
	kernels []*calKernel
	rates   []float64
	last    time.Time
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < calWorkers; i++ {
		c.kernels = append(c.kernels, newCalKernel(uint32(i+1)*0x9e3779b9))
	}
	return c
}

// burst runs the kernel on calWorkers goroutines, each on its own OS
// thread, for calWarm plus calBurst, and records the chunks they
// completed in calBurst per CPU-second they used meanwhile.
func (c *calibrator) burst() {
	var wg sync.WaitGroup
	chunks := make([]int, len(c.kernels))
	cpu := make([]time.Duration, len(c.kernels))
	start := time.Now().Add(calWarm)
	deadline := start.Add(calBurst)
	for i, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			k.reset()
			for time.Now().Before(start) {
				k.chunk()
			}
			t0 := threadCPU()
			n := 0
			for time.Now().Before(deadline) {
				k.chunk()
				n++
			}
			chunks[i], cpu[i] = n, threadCPU()-t0
		}()
	}
	wg.Wait()
	c.last = time.Now()
	n, secs := 0, 0.0
	for i := range chunks {
		n += chunks[i]
		secs += cpu[i].Seconds()
	}
	if secs > 0 {
		c.rates = append(c.rates, float64(n)/secs)
	}
}

// tick runs a burst if none ran in the last calEvery.
func (c *calibrator) tick() {
	if c.last.IsZero() || time.Since(c.last) >= calEvery {
		c.burst()
	}
}

// scale is the factor that turns a CPU-second of this run into one at
// the reference rate: the median burst rate over calRefRate.
func (c *calibrator) scale() float64 {
	if len(c.rates) == 0 {
		return 1
	}
	return median(c.rates) / calRefRate
}
