// Package core implements the commit-stage checkers of the paper's
// transient-fault tolerant superscalar. The out-of-order datapath
// (package cpu) provides the other two mechanisms of Section 3.2 —
// instruction injection, which dispatches each instruction as R
// redundant, data-independent copies, and the ECC-protected committed
// next-PC — and calls a cpu.Checker on every retiring group of R
// copies. The checkers here decide what happens to that group:
//
//   - RewindChecker cross-checks the copies' result values, memory
//     addresses, store data and branch outcomes, and any disagreement
//     rewinds the whole ROB and refetches from the committed next-PC;
//   - MajorityChecker, for R >= 3, commits the value a threshold of
//     copies agree on without a rewind (majority election).
//
// Package ftsim assembles these checkers into the machine models
// evaluated in Section 5 (SS-1, SS-2, the R=3 majority design, and
// Static-2).
package core
