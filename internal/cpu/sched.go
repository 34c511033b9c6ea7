package cpu

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/trace"
)

// nextPow2 returns the smallest power of two >= n (n >= 1); the ring
// buffers round their storage up with it so index stepping is mask
// arithmetic.
func nextPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// This file holds the event-driven scheduling kernel. The original
// implementation rescanned the whole RUU once per stage per cycle, which
// made every simulated cycle O(RUUSize) regardless of how many entries
// actually did anything. The structures below make each stage touch only
// the entries with an event this cycle:
//
//   - waitlists: per-producer consumer lists built at rename time, so a
//     completing entry wakes exactly its consumers (replaces the
//     broadcast scan);
//   - calendar: a completion time-wheel keyed on DoneAt (with a min-heap
//     fallback for latencies beyond the wheel), so writeback visits only
//     the entries finishing this cycle (replaces the writeback scan);
//   - issue bitmaps: one ready bit per RUU slot, set by dispatch and
//     wakeup, plus one slot mask per functional-unit class, so issue
//     visits only ready entries and drops a whole class at once when its
//     units are taken (replaces the issue scan; see issueEvent).
//
// The bitmaps are cleared eagerly whenever a slot is freed (commit,
// squash, quiesce, reset), so a set ready bit always names a live entry.
// Wait-list and calendar records are repaired lazily instead: each
// carries the (ring index, seq) pair of the entry it refers to, and a
// record whose seq no longer matches the entry at its index is dropped
// when it surfaces. This is sound because seqs are never reused: a
// squashed entry's slot is either empty (Valid false) or re-allocated
// under a strictly larger seq, so stale records can never act on the
// wrong instruction. Producer wait-lists are additionally cleared when
// their slot is re-allocated, which bounds them without a scan.
// Determinism is preserved because every stage visits its entries
// oldest first — exactly the order the scans enforced — so the sequence
// of functional-unit reservations, fault-injector rolls and branch
// rewinds is bit-identical to the scan-based kernel
// (TestScanVsEventEquivalence is the referee).

// waiter records one operand of one consumer waiting on a producer.
type waiter struct {
	idx int32  // consumer ring index
	seq uint64 // consumer seq (slot-reuse guard)
	op  uint8  // which of the consumer's operands
}

// calendar schedules completions. Entries issued with DoneAt within
// wheelSize cycles go into the time-wheel bucket for that cycle; longer
// latencies (deep cache misses) fall back to a small min-heap. Both are
// drained together and sorted by seq so the writeback order — and with
// it the oldest-mispredicted-branch-squashes-first invariant — matches
// the age-ordered scan exactly.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

type calRec struct {
	idx int32
	seq uint64
}

type farRec struct {
	doneAt uint64
	idx    int32
	seq    uint64
}

type calendar struct {
	wheel [wheelSize][]calRec
	far   []farRec // min-heap on doneAt
	due   []calRec // drain scratch, reused across cycles
}

// insert schedules (idx, seq) to surface at cycle doneAt. now is the
// current cycle; doneAt is always strictly in the future, so a bucket
// can never hold records for two different cycles at once.
func (c *calendar) insert(now, doneAt uint64, idx int32, seq uint64) {
	if doneAt-now < wheelSize {
		b := int(doneAt & wheelMask)
		c.wheel[b] = append(c.wheel[b], calRec{idx: idx, seq: seq})
		return
	}
	c.far = append(c.far, farRec{doneAt: doneAt, idx: idx, seq: seq})
	i := len(c.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.far[parent].doneAt <= c.far[i].doneAt {
			break
		}
		c.far[parent], c.far[i] = c.far[i], c.far[parent]
		i = parent
	}
}

// drain returns every record due at cycle now, sorted by seq (oldest
// first). The returned slice is valid until the next drain call.
func (c *calendar) drain(now uint64) []calRec {
	c.due = c.due[:0]
	b := int(now & wheelMask)
	c.due = append(c.due, c.wheel[b]...)
	c.wheel[b] = c.wheel[b][:0]
	for len(c.far) > 0 && c.far[0].doneAt <= now {
		top := c.far[0]
		last := len(c.far) - 1
		c.far[0] = c.far[last]
		c.far = c.far[:last]
		c.farSiftDown(0)
		c.due = append(c.due, calRec{idx: top.idx, seq: top.seq})
	}
	// Records arrive in issue order, not age order (a long-latency old
	// entry and a short-latency young one can share a cycle), so sort.
	// The lists are tiny and nearly sorted; insertion sort is exact and
	// allocation-free.
	for i := 1; i < len(c.due); i++ {
		r := c.due[i]
		j := i - 1
		for j >= 0 && c.due[j].seq > r.seq {
			c.due[j+1] = c.due[j]
			j--
		}
		c.due[j+1] = r
	}
	return c.due
}

func (c *calendar) farSiftDown(i int) {
	n := len(c.far)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && c.far[l].doneAt < c.far[small].doneAt {
			small = l
		}
		if r < n && c.far[r].doneAt < c.far[small].doneAt {
			small = r
		}
		if small == i {
			return
		}
		c.far[i], c.far[small] = c.far[small], c.far[i]
		i = small
	}
}

func (c *calendar) reset() {
	for i := range c.wheel {
		c.wheel[i] = c.wheel[i][:0]
	}
	c.far = c.far[:0]
}

// calBucketCap pre-sizes each wheel bucket. A bucket holds at most one
// cycle's completions, which the issue stage bounds by IssueWidth
// (Table 1: 8), so 8 covers the steady state; a wider machine merely
// grows the odd bucket once and keeps it.
const calBucketCap = 8

// init makes the calendar empty and fully pre-sized: the first call
// carves all wheel buckets out of one slab (one allocation instead of
// 256) and pre-sizes the far heap and drain scratch; later calls just
// empty the structures, keeping any capacity they have grown.
func (c *calendar) init() {
	if c.wheel[0] == nil {
		slab := make([]calRec, wheelSize*calBucketCap)
		for i := range c.wheel {
			c.wheel[i] = slab[i*calBucketCap : i*calBucketCap : (i+1)*calBucketCap]
		}
		c.far = make([]farRec, 0, 64)
		c.due = make([]calRec, 0, 64)
		return
	}
	c.reset()
	c.due = c.due[:0]
}

// ---------------------------------------------------------------------
// Decoded-instruction cache: fetch used to re-read and re-decode the
// instruction word from memory for every fetched slot; a direct-mapped
// cache keyed on the (8-byte aligned) PC makes that work happen once per
// static instruction. Committed stores invalidate any overlapped slots,
// so self-modifying programs still see their writes.

const (
	decBits = 12
	decSize = 1 << decBits
	decMask = decSize - 1
)

type decCache struct {
	// tags holds pc+1 so the zero value means "empty" (PCs are 8-byte
	// aligned and can never equal ^uint64(0), so pc+1 never collides
	// with 0).
	tags [decSize]uint64
	inst [decSize]isa.Inst
	oi   [decSize]*isa.OpInfo
}

func (d *decCache) slot(pc uint64) int { return int((pc >> 3) & decMask) }

// reset invalidates every slot. Only the tags need clearing — stale
// inst/oi entries are unreachable once their tag is zero — so a machine
// reset costs one 32 KB memclr here, not a rebuild.
func (d *decCache) reset() { clear(d.tags[:]) }

// drop invalidates the slot covering the aligned address a, if cached.
func (d *decCache) drop(a uint64) {
	s := d.slot(a)
	if d.tags[s] == a+1 {
		d.tags[s] = 0
	}
}

// decode returns the instruction at pc, from cache when possible.
// Unaligned PCs — reachable only on wrong paths (a mis-speculated jr on
// a garbage register value, a fault-flipped branch target) — bypass the
// cache: they are rare, and store invalidation only tracks the aligned
// instruction words, so caching them could serve a stale decode.
func (m *Machine) decode(pc uint64) (isa.Inst, *isa.OpInfo) {
	if pc&(isa.InstBytes-1) != 0 {
		in := isa.Decode(m.mem.Read(pc, isa.InstBytes))
		return in, in.Info()
	}
	s := m.dec.slot(pc)
	if m.dec.tags[s] == pc+1 {
		return m.dec.inst[s], m.dec.oi[s]
	}
	in := isa.Decode(m.mem.Read(pc, isa.InstBytes))
	oi := in.Info()
	m.dec.tags[s] = pc + 1
	m.dec.inst[s] = in
	m.dec.oi[s] = oi
	return in, oi
}

// decInvalidate drops decode-cache slots overlapped by a committed store
// to [addr, addr+size). A store can overlap at most two aligned
// instruction words.
func (m *Machine) decInvalidate(addr uint64, size int) {
	a0 := addr &^ uint64(isa.InstBytes-1)
	a1 := (addr + uint64(size) - 1) &^ uint64(isa.InstBytes-1)
	m.dec.drop(a0)
	if a1 != a0 {
		m.dec.drop(a1)
	}
}

// ---------------------------------------------------------------------
// Fetch queue ring: the fetch queue used to be a slice trimmed with
// fetchQ = fetchQ[1:] per dispatched instruction, which marched the
// backing array forward and forced append to reallocate. A fixed ring
// keeps it allocation-free after New.

type fetchRing struct {
	buf   []fetchedInst
	mask  int
	limit int // architectural depth (cfg.FetchQueue)
	head  int
	count int
}

func newFetchRing(depth int) *fetchRing {
	capacity := nextPow2(depth)
	return &fetchRing{buf: make([]fetchedInst, capacity), mask: capacity - 1, limit: depth}
}

func (f *fetchRing) len() int    { return f.count }
func (f *fetchRing) full() bool  { return f.count >= f.limit }
func (f *fetchRing) empty() bool { return f.count == 0 }

func (f *fetchRing) push(fi fetchedInst) {
	if f.full() {
		panic("cpu: fetch queue overflow")
	}
	f.buf[(f.head+f.count)&f.mask] = fi
	f.count++
}

// front returns the oldest queued slot; it must not be empty.
func (f *fetchRing) front() *fetchedInst { return &f.buf[f.head] }

func (f *fetchRing) pop() {
	if f.count == 0 {
		panic("cpu: fetch queue underflow")
	}
	f.buf[f.head] = fetchedInst{}
	f.head = (f.head + 1) & f.mask
	f.count--
}

func (f *fetchRing) reset() {
	for f.count > 0 {
		f.pop()
	}
}

// renew returns a ring of the given depth, reusing f's buffer when the
// storage size matches; the result is as-new (empty, head at zero).
func (f *fetchRing) renew(depth int) *fetchRing {
	if f == nil || nextPow2(depth) != len(f.buf) {
		return newFetchRing(depth)
	}
	clear(f.buf)
	f.limit = depth
	f.head, f.count = 0, 0
	return f
}

// ---------------------------------------------------------------------
// Event-driven stage implementations. New installs these as the
// machine's issue/writeback stages; the retained scan-based reference
// scheduler (test files only) swaps itself in for equivalence testing.

// wakeup delivers a completed result to exactly the consumers registered
// on the producer's wait-list, and sets the ready bit of every consumer
// that now has all its operands. It replaces the full-RUU broadcast scan.
func (m *Machine) wakeup(idx int, producer *Entry) {
	wl := m.waitlists[idx]
	for i := range wl {
		w := wl[i]
		c := m.ruu.at(int(w.idx))
		if !c.Valid || c.Seq != w.seq {
			continue // consumer squashed; slot empty or re-used
		}
		op := &c.Ops[w.op]
		if !op.Used || op.Ready || op.Producer != idx || op.ProducerSeq != producer.Seq {
			continue
		}
		op.Ready = true
		op.Value = producer.Result
		if !c.Issued && c.ready() {
			m.ruu.markReady(int(w.idx))
		}
	}
	// Every live waiter has been served (completion is broadcast once),
	// so the list empties; stale waiters died with their entries.
	m.waitlists[idx] = wl[:0]
}

// watch registers consumer (cidx, cseq)'s operand op on the producer at
// ring index pidx. Called at rename time when an operand is not ready.
func (m *Machine) watch(pidx int, cidx int, cseq uint64, op int) {
	m.waitlists[pidx] = append(m.waitlists[pidx], waiter{idx: int32(cidx), seq: cseq, op: uint8(op)})
}

// complete finishes one entry on the event path: publish the result,
// wake consumers, un-park gated redundant load copies, and resolve
// control flow.
func (m *Machine) complete(idx int, e *Entry) {
	e.InFlight = false
	e.Done = true
	m.emit(trace.StageComplete, e)
	m.wakeup(idx, e)

	// A load group's redundant copies are gated on copy 0's single
	// memory access (Section 5.1.2); the issue stage cleared their ready
	// bits when it parked them, and they become eligible exactly now.
	if e.Copy == 0 && e.OI.IsLoad {
		for k := 1; k < m.cfg.R; k++ {
			sidx := m.ruu.wrap(idx + k)
			s := m.ruu.at(sidx)
			if s.Valid && s.GID == e.GID && !s.Issued && s.ready() {
				m.ruu.markReady(sidx)
			}
		}
	}

	// Branch resolution (Section 3.2, "Fault Detection"): as soon as one
	// copy of a control instruction disagrees with the current predicted
	// path, rewind immediately on that singular result.
	if e.OI.IsCtrl() && e.NextPC != e.PredNext {
		m.branchRewind(idx, e)
	}
}

// writebackEvent drains the completion calendar for this cycle in seq
// order: only entries finishing now are visited, oldest first, so the
// eldest mispredicted branch squashes before younger completions are
// looked at (squashed younger records fail their seq guard and drop).
func (m *Machine) writebackEvent() {
	due := m.cal.drain(m.cycle)
	for i := range due {
		rec := due[i]
		e := m.ruu.at(int(rec.idx))
		if !e.Valid || e.Seq != rec.seq || !e.InFlight {
			continue // squashed after issue; record is stale
		}
		m.complete(int(rec.idx), e)
	}
}

// issueEvent selects ready entries oldest-first, up to IssueWidth
// successful issues, by walking the ready bitmap from the RUU head (ring
// order from the head is age order). The head's word is visited twice:
// first its bits from the head up, last its bits below the head.
//
// Issued and parked entries leave the ready set (copy 0's completion
// re-arms a parked copy); a blocked load keeps its bit and retries next
// cycle. A busy functional unit keeps the bit too and marks its class
// full for the cycle: busyUntil only grows within a cycle, so one
// AND-NOT of the class mask drops every younger candidate unprobed.
func (m *Machine) issueEvent() {
	r := m.ruu
	budget := m.cfg.IssueWidth
	words := len(r.ready)
	hw, hb := r.head>>6, uint(r.head&63)
	var full uint8 // bit p set: class p refused a unit this cycle
	for i := 0; i <= words; i++ {
		w := hw + i
		if w >= words {
			w -= words
		}
		cand := r.ready[w]
		switch i {
		case 0:
			cand &= ^uint64(0) << hb
		case words:
			cand &= 1<<hb - 1
		}
		for f := full; f != 0; f &= f - 1 {
			cand &^= r.poolSlots[bits.TrailingZeros8(f)][w]
		}
		for cand != 0 {
			b := bits.TrailingZeros64(cand)
			bit := uint64(1) << b
			cand &^= bit
			idx := w<<6 | b
			e := r.at(idx)
			switch m.tryIssueEntry(idx, e) {
			case issueOK:
				r.ready[w] &^= bit
				if budget--; budget == 0 {
					return
				}
			case issueParked:
				r.ready[w] &^= bit
			case issueFUBusy:
				p := e.OI.Pool
				full |= 1 << p
				cand &^= r.poolSlots[p][w]
			}
		}
	}
}
