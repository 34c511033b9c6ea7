package cpu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// Completion calendar.

func TestCalendarWheelAndFar(t *testing.T) {
	var c calendar
	// Near events go to the wheel, far ones to the heap; both surface at
	// the right cycle, sorted by seq.
	c.insert(100, 102, 7, 50)
	c.insert(100, 102, 3, 10)
	c.insert(100, 100+wheelSize+5, 1, 30) // far
	c.insert(100, 100+wheelSize+5, 2, 20) // far

	if got := c.drain(101); len(got) != 0 {
		t.Fatalf("cycle 101: drained %v, want none", got)
	}
	got := c.drain(102)
	if len(got) != 2 || got[0].seq != 10 || got[1].seq != 50 {
		t.Fatalf("cycle 102: drained %v, want seqs [10 50]", got)
	}
	far := c.drain(100 + wheelSize + 5)
	if len(far) != 2 || far[0].seq != 20 || far[1].seq != 30 {
		t.Fatalf("far cycle: drained %v, want seqs [20 30]", far)
	}
	if len(c.far) != 0 {
		t.Fatalf("far heap not drained: %v", c.far)
	}
}

func TestCalendarSeqSortMixedLatency(t *testing.T) {
	var c calendar
	// A long-latency old entry and short-latency young entries land on
	// the same cycle out of insertion order; drain must return seq order.
	c.insert(10, 30, 1, 100) // issued early, 20-cycle op
	c.insert(29, 30, 2, 900) // issued late, 1-cycle op
	c.insert(29, 30, 3, 500)
	got := c.drain(30)
	if len(got) != 3 || got[0].seq != 100 || got[1].seq != 500 || got[2].seq != 900 {
		t.Fatalf("drained %v, want seqs [100 500 900]", got)
	}
}

// ---------------------------------------------------------------------
// Bitmap issue select.

// TestBitmapSelect drives issueEvent by hand on a four-word ring: the
// select order, the class-full drop and the parking of gated load
// copies, each checked against the issue trace and the ready bits.
func TestBitmapSelect(t *testing.T) {
	t.Run("oldest-first-across-wrap", testSelectOldestFirstAcrossWrap)
	t.Run("full-class-drops-younger", testSelectFullClassDropsYounger)
	t.Run("parked-copy-rearmed", testSelectParkedCopyRearmed)
}

// selectMachine builds a 256-slot (four-word) machine for driving
// issueEvent by hand, with every issue recorded by a trace buffer.
func selectMachine(t *testing.T, r, issueWidth int) (*Machine, *trace.Buffer) {
	t.Helper()
	cfg := Baseline()
	cfg.RUUSize = 256
	cfg.IssueWidth = issueWidth
	cfg.R = r
	if r > 1 {
		cfg.Checker = testChecker{}
	}
	buf := trace.NewBuffer(64)
	cfg.Tracer = buf
	b := prog.NewBuilder("select")
	b.Halt()
	m, err := New(cfg, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	m.cycle = 1
	return m, buf
}

// fillWindow makes the RUU hold one entry per op, oldest first from ring
// slot head, and feeds the issue bitmaps as dispatch does. Entries
// listed in ready have all operands; the others wait on one.
func fillWindow(m *Machine, head int, ops []isa.Op, ready map[int]bool) []int {
	m.ruu.head, m.ruu.tail = head, head
	slots := make([]int, len(ops))
	for i, op := range ops {
		idx := m.ruu.alloc()
		slots[i] = idx
		m.seq++
		m.gid++
		e := m.ruu.at(idx)
		*e = Entry{Valid: true, Seq: m.seq, GID: m.gid, Inst: isa.Inst{Op: op}, OI: isa.Info(op), LSQ: -1, FUUnit: -1}
		if !ready[i] {
			e.Ops[0] = Operand{Used: true}
		}
		m.ruu.setPool(idx, e.OI.Pool)
		if e.ready() {
			m.ruu.markReady(idx)
		}
	}
	return slots
}

func isReady(m *Machine, idx int) bool { return m.ruu.ready[idx>>6]&(1<<(idx&63)) != 0 }

// issuedSeqs returns the seqs issued since the buffer was created, in
// issue order.
func issuedSeqs(buf *trace.Buffer) []uint64 {
	var seqs []uint64
	for _, ev := range buf.Events() {
		if ev.Stage == trace.StageIssue {
			seqs = append(seqs, ev.Seq)
		}
	}
	return seqs
}

func testSelectOldestFirstAcrossWrap(t *testing.T) {
	// Head in the last word (slot 250); the window wraps into the first
	// word. Ready entries sit in both words, and the issue width admits
	// only three of the four.
	m, buf := selectMachine(t, 1, 3)
	ops := make([]isa.Op, 12)
	for i := range ops {
		ops[i] = isa.OpAdd
	}
	slots := fillWindow(m, 250, ops, map[int]bool{2: true, 4: true, 7: true, 9: true})
	if slots[2] != 252 || slots[4] != 254 || slots[7] != 1 || slots[9] != 3 {
		t.Fatalf("window layout %v", slots)
	}
	m.issueEvent()
	seq := func(i int) uint64 { return m.ruu.at(slots[i]).Seq }
	got, want := issuedSeqs(buf), []uint64{seq(2), seq(4), seq(7)}
	if !slices.Equal(got, want) {
		t.Fatalf("issued seqs %v, want %v (oldest first across the wrap)", got, want)
	}
	for _, i := range []int{2, 4, 7} {
		if isReady(m, slots[i]) {
			t.Errorf("slot %d issued but still ready", slots[i])
		}
	}
	if !isReady(m, slots[9]) {
		t.Error("youngest candidate lost its ready bit with the width spent")
	}
}

func testSelectFullClassDropsYounger(t *testing.T) {
	// Baseline has one FP multiplier. The oldest fmul takes it, the next
	// is refused, and every younger fmul — in the same word and in a
	// later one — must drop without being probed, while younger adds
	// still issue.
	m, buf := selectMachine(t, 1, 8)
	ops := make([]isa.Op, 72)
	for i := range ops {
		ops[i] = isa.OpAdd
	}
	for _, i := range []int{0, 1, 3, 70} {
		ops[i] = isa.OpFmul
	}
	ready := map[int]bool{0: true, 1: true, 2: true, 3: true, 70: true, 71: true}
	slots := fillWindow(m, 0, ops, ready)
	// A probe of a dropped candidate would dereference its nil OpInfo.
	m.ruu.at(slots[3]).OI = nil
	m.ruu.at(slots[70]).OI = nil
	m.issueEvent()
	seq := func(i int) uint64 { return m.ruu.at(slots[i]).Seq }
	got, want := issuedSeqs(buf), []uint64{seq(0), seq(2), seq(71)}
	if !slices.Equal(got, want) {
		t.Fatalf("issued seqs %v, want %v", got, want)
	}
	for _, i := range []int{1, 3, 70} {
		if !isReady(m, slots[i]) {
			t.Errorf("refused fmul at slot %d lost its ready bit", slots[i])
		}
	}
	for _, i := range []int{0, 2, 71} {
		if isReady(m, slots[i]) {
			t.Errorf("issued slot %d still ready", slots[i])
		}
	}
}

func testSelectParkedCopyRearmed(t *testing.T) {
	// An R=2 load group: copy 0 still waits on its address operand, copy
	// 1 has its operands. Copy 1 parks (its bit clears) until copy 0's
	// completion sets it again; then it issues with copy 0's value.
	m, buf := selectMachine(t, 2, 8)
	slots := fillWindow(m, 0, []isa.Op{isa.OpLd, isa.OpLd}, map[int]bool{1: true})
	c0, c1 := m.ruu.at(slots[0]), m.ruu.at(slots[1])
	c1.GID, c1.Copy = c0.GID, 1
	m.issueEvent()
	if n := len(issuedSeqs(buf)); n != 0 {
		t.Fatalf("%d issues, want none", n)
	}
	if isReady(m, slots[1]) {
		t.Fatal("parked copy kept its ready bit")
	}

	c0.LSQ = m.lsq.alloc()
	le := m.lsq.at(c0.LSQ)
	le.valid, le.dataValid, le.loadVal = true, true, 42
	m.complete(slots[0], c0)
	if !isReady(m, slots[1]) {
		t.Fatal("copy 0's completion did not set the parked copy's bit")
	}
	m.cycle++
	m.issueEvent()
	if got := issuedSeqs(buf); !slices.Equal(got, []uint64{c1.Seq}) || c1.Result != 42 {
		t.Fatalf("issued %v with result %d, want copy 1 (seq %d) with 42", got, c1.Result, c1.Seq)
	}
	if isReady(m, slots[1]) {
		t.Fatal("issued copy still ready")
	}
}

// ---------------------------------------------------------------------
// Fetch ring.

func TestFetchRingWrapAndReset(t *testing.T) {
	f := newFetchRing(3) // storage rounds to 4, depth stays 3
	if f.limit != 3 || len(f.buf) != 4 {
		t.Fatalf("depth=%d storage=%d", f.limit, len(f.buf))
	}
	for i := 0; i < 3; i++ {
		f.push(fetchedInst{pc: uint64(i)})
	}
	if !f.full() || f.len() != 3 {
		t.Fatal("ring should be full at its architectural depth")
	}
	if f.front().pc != 0 {
		t.Fatalf("front pc = %d", f.front().pc)
	}
	f.pop()
	f.push(fetchedInst{pc: 3}) // wraps storage
	var pcs []uint64
	for !f.empty() {
		pcs = append(pcs, f.front().pc)
		f.pop()
	}
	want := []uint64{1, 2, 3}
	for i := range want {
		if pcs[i] != want[i] {
			t.Fatalf("drained %v, want %v", pcs, want)
		}
	}
	f.push(fetchedInst{pc: 9})
	f.reset()
	if !f.empty() {
		t.Fatal("reset left entries")
	}
}

func TestFetchRingOverflowPanics(t *testing.T) {
	f := newFetchRing(2)
	f.push(fetchedInst{})
	f.push(fetchedInst{})
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	f.push(fetchedInst{})
}

// ---------------------------------------------------------------------
// Decoded-instruction cache.

func testMachine(t *testing.T) *Machine {
	t.Helper()
	b := prog.NewBuilder("dec")
	b.Halt()
	m, err := New(Baseline(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecodeCacheHitAndInvalidate(t *testing.T) {
	m := testMachine(t)
	pc := uint64(0x10000)
	w1 := isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1})
	w2 := isa.Encode(isa.Inst{Op: isa.OpXor, Rd: 3, Rs1: 3, Rs2: 3})
	m.mem.Write(pc, 8, w1)

	in, oi := m.decode(pc)
	if in.Op != isa.OpAddi || oi != isa.Info(isa.OpAddi) {
		t.Fatalf("decoded %v", in)
	}
	// Behind the cache's back the word changes; the cache must keep
	// serving the old decode until an invalidation lands.
	m.mem.Write(pc, 8, w2)
	if in, _ := m.decode(pc); in.Op != isa.OpAddi {
		t.Fatalf("expected cached decode, got %v", in)
	}
	// A committed store overlapping the word invalidates the slot.
	m.decInvalidate(pc+4, 4)
	if in, _ := m.decode(pc); in.Op != isa.OpXor {
		t.Fatalf("stale decode after invalidation: %v", in)
	}
}

func TestDecodeCacheStraddlingInvalidate(t *testing.T) {
	m := testMachine(t)
	a, b := uint64(0x20000), uint64(0x20008)
	m.mem.Write(a, 8, isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 5}))
	m.mem.Write(b, 8, isa.Encode(isa.Inst{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 6}))
	m.decode(a)
	m.decode(b)
	// An 8-byte store at a+4 overlaps both instruction words: it zeroes
	// the first word's opcode bytes and the second word's immediate.
	m.mem.Write(a+4, 8, 0)
	m.decInvalidate(a+4, 8)
	for _, pc := range []uint64{a, b} {
		want := isa.Decode(m.mem.Read(pc, isa.InstBytes))
		if in, _ := m.decode(pc); in != want {
			t.Fatalf("stale decode at %#x: got %v, want %v", pc, in, want)
		}
	}
	if in, _ := m.decode(a); in.Op != isa.OpNop {
		t.Fatalf("first word's zeroed opcode should decode to nop, got %v", in)
	}
}

// TestCommitStoreInvalidatesDecode runs a real program whose store
// lands on one of its own (already fetched and decode-cached)
// instructions, and checks the commit path's invalidation hook keeps
// the decode cache coherent with committed memory afterwards.
func TestCommitStoreInvalidatesDecode(t *testing.T) {
	patch := isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 77}
	b := prog.NewBuilder("smc")
	b.La(7, "victim")                 // 1 instruction
	b.Li(6, int64(isa.Encode(patch))) // 2 instructions (lih+ori)
	b.Label("victim")
	b.Li(5, 11) // executes unpatched this run
	b.Out(5)
	b.Store(isa.OpSd, 6, 7, 0) // overwrite the victim in memory
	b.Halt()
	victimPC := uint64(prog.TextBase) + 3*isa.InstBytes

	m, err := New(Baseline(), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted || len(st.Output) != 1 || st.Output[0] != 11 {
		t.Fatalf("run: halted=%v output=%v", st.Halted, st.Output)
	}
	// The victim was fetched (so cached) before the store committed; a
	// fresh decode must now see the patched word, not the cached one.
	if in, _ := m.decode(victimPC); in != patch {
		t.Fatalf("decode after store = %v, want %v", in, patch)
	}
}
