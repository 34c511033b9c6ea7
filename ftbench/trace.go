package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers a span can belong to, named after the packages the benchmark
// calls into (or, for rebuilt spans, the package that did the work).
const (
	layerFtsim    = "ftsim"
	layerCPU      = "cpu"
	layerCampaign = "campaign"
	layerAPI      = "api"
	layerClient   = "client"
	layerServer   = "server"
	layerSSE      = "sse"
	layerCoord    = "coord"
)

var allLayers = []string{layerFtsim, layerCPU, layerCampaign, layerAPI, layerClient, layerServer, layerSSE, layerCoord}

// span is one timed interval at a layer boundary. Times are wall-clock
// nanoseconds, so spans rebuilt from daemon timestamps line up with the
// benchmark's own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Trace  string `json:"trace"`            // the job or trial the span serves
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, trace, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, trace, layer, name, start.UnixNano(), end.UnixNano()})
	return id
}

// open records a span that starts now; the returned func ends it and
// returns its id, for use as a parent of spans added afterwards.
func (t *tracer) open(parent int, trace, layer, name string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.add(parent, trace, layer, name, start, start)
	return id, func() {
		now := time.Now().UnixNano()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover, over the spans whose trace passes keep.
func (t *tracer) selfTimes(keep func(trace string) bool) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if !keep(s.Trace) {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		if self > 0 {
			out[s.Layer] += time.Duration(self)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// trialSpan is a trial span rebuilt from a completion report: the
// trial's whole host time, RunPooled around Session.Run.
type trialSpan struct {
	id         int
	trace      string
	start, end time.Time
}

// splitTrials gives each rebuilt trial span a cpu child for its
// Session.Run part. The benchmark cannot see where inside a campaign's
// trial the simulation starts, so the child starts after the pool
// overhead the ftsim probe measured (RunPooled minus Session.Run on the
// same trial); the rest of the trial span is ftsim self time.
func splitTrials(rep *report, tr *tracer, spans []trialSpan) {
	overhead := time.Duration(rep.metrics["ftsim.pool_overhead_us"].Value * 1e3)
	for _, s := range spans {
		start := s.start.Add(max(overhead, 0))
		if start.After(s.end) {
			start = s.end
		}
		tr.add(s.id, s.trace, layerCPU, "Session.Run", start, s.end)
	}
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
