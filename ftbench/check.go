package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/ftsim"
)

// projection is the fixed subset of ftsim.Stats the output checks
// compare. It is fixed on purpose: a Stats field added later does not
// change the digests, while any change to these counters does.
type projection struct {
	Cycles, Committed, Copies                                  uint64
	FaultsDetected, FaultRewinds, MajorityCommits, RecoveryCyc uint64
	Halted                                                     bool
}

func project(st *ftsim.Stats) projection {
	return projection{
		Cycles: st.Cycles, Committed: st.Committed, Copies: st.Copies,
		FaultsDetected: st.FaultsDetected, FaultRewinds: st.FaultRewinds,
		MajorityCommits: st.MajorityCommits, RecoveryCyc: st.RecoveryCycles,
		Halted: st.Halted,
	}
}

// digest fingerprints a sequence of projections and the escaped-fault
// counts of the oracle re-runs that go with them.
func digest(ps []projection, escapes []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range ps {
		for _, v := range []uint64{p.Cycles, p.Committed, p.Copies, p.FaultsDetected,
			p.FaultRewinds, p.MajorityCommits, p.RecoveryCyc} {
			put(v)
		}
		if p.Halted {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, e := range escapes {
		put(e)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenDigests are the digests of the default seed, per size: the
// projections of the first campaign's grid (in-process workloads) or of
// the first job's merged stats (sharded-service), with the escaped-fault
// counts of their oracle re-runs (the seed's sampled trials in process,
// every trial of the first job in the service). They change only when
// the simulated model changes, which no performance change may do.
var goldenDigests = map[string]string{
	"sim-window":           "6d40a8a9b9f8555f",
	"sim-window/tiny":      "b06d00ba1d0a6629",
	"fault-campaign":       "fb2e955973999133",
	"fault-campaign/tiny":  "298c632cd05ae8c1",
	"sharded-service":      "554751ae6729234f",
	"sharded-service/tiny": "35df588dca190f34",
}

// checkDigest records the digest of ps and escapes and, for the default
// seed, compares it with the recorded one.
func checkDigest(o options, rep *report, ps []projection, escapes []uint64) {
	key := o.workload
	if o.tiny {
		key += "/tiny"
	}
	got := digest(ps, escapes)
	rep.details["digest"] = got
	if o.seed != defaultSeed {
		return
	}
	want := goldenDigests[key]
	if o.control == controlWrongDigest {
		want = "0000000000000000"
	}
	rep.attempted++
	if got != want {
		rep.fail("projection digest %s, want %s", got, want)
	}
}

// rerun is one timed trial to re-simulate for the output check.
type rerun struct {
	label   string
	cfg     ftsim.Config
	prog    *ftsim.Program
	seed    int64 // the trial's derived fault seed
	timed   projection
	escapes bool // R >= 2: a single fault must not escape
}

// verifyReruns re-simulates each trial on a fresh machine with the
// oracle on and compares it with the timed run; each re-run is one
// attempted operation. It returns each re-run's escaped-fault count.
//
// Faults escape an R >= 2 design only when two of them strike copies
// of one instruction with the same corruption, which happens at the
// workloads' highest rates (see README.md). The design guarantees
// detection of any single fault, so an escape from an R >= 2 trial with
// fewer than two injected faults fails the check; other escapes are
// counted and, for the default seed, pinned by the digest.
func verifyReruns(ctx context.Context, o options, rep *report, rs []rerun) ([]uint64, error) {
	escapes := make([]uint64, len(rs))
	for i, r := range rs {
		if o.control == controlCorruptProjection && i == 0 {
			r.timed.Cycles++
		}
		cfg := r.cfg
		cfg.Oracle = true
		if cfg.Fault.Enabled() {
			cfg.Fault.Seed = r.seed
		}
		m, err := ftsim.NewFromConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("rerun %s: %w", r.label, err)
		}
		rep.attempted++
		st, err := m.Run(ctx, r.prog)
		if err != nil {
			rep.fail("rerun %s: %v", r.label, err)
			continue
		}
		escapes[i] = st.EscapedFaults
		if got := project(st); got != r.timed {
			rep.fail("rerun %s: stats %+v, timed run had %+v", r.label, got, r.timed)
			continue
		}
		if r.escapes && st.EscapedFaults != 0 && st.Fault.Injected < 2 {
			rep.fail("rerun %s: a single injected fault escaped with R=%d", r.label, cfg.R)
		}
	}
	n := 0
	for _, e := range escapes {
		if e > 0 {
			n++
		}
	}
	rep.details["reruns"] = len(rs)
	rep.details["reruns_with_escapes"] = n
	return escapes, nil
}

// sample picks k distinct indices of [0, n) from the workload seed.
func sample(seed int64, n, k int) []int {
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:k]
}
