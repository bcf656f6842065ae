package zkvm

import (
	"crypto/rand"
	"fmt"

	"zkflow/internal/transcript"
)

// DefaultChecks is the default number of sampled checks per family.
// Verification cost and seal size grow linearly in it; soundness
// against a prover cheating on a fraction f of rows is 1-(1-f)^k.
const DefaultChecks = 48

// ProveOptions configures proof generation.
type ProveOptions struct {
	// Checks is the sampled-check count per family (default DefaultChecks).
	Checks int
	// Parallelism bounds the prover's worker pool: the committed
	// tables (execution-trace rows, the two memory-log orderings —
	// which include the hash-precompile's memory rows — and the two
	// running-product columns) are encoded and committed concurrently,
	// and leaf hashing and Merkle levels are built with a chunked
	// fan-out. 0 means runtime.GOMAXPROCS(0); 1 forces the fully
	// serial path. Every width
	// produces byte-identical receipts (asserted by
	// TestParallelProveDeterminism).
	Parallelism int
	// SegmentCycles, when positive, enables continuation-style
	// segmented proving (ProveSegmented / ProveAny): the execution is
	// cut every SegmentCycles steps and each slice is sealed as an
	// independent segment receipt chained through committed boundary
	// states. Values below minSegmentCycles are floored. Zero keeps
	// the monolithic single-receipt path; Prove itself always ignores
	// this field.
	SegmentCycles int
	// AllowNonZeroExit proves runs that halted with a nonzero exit
	// code. By default such runs are treated as guest aborts and
	// refuse to prove — the paper's "failed proof generation" signal.
	AllowNonZeroExit bool
	// MaxSteps bounds the guest cycle budget (0 = default).
	MaxSteps int
	// Observer, when non-nil, receives per-stage timings (see Stages).
	// It never affects the receipt bytes; a nil observer costs one
	// branch per stage.
	Observer StageObserver
}

// GuestAbortError reports a guest that halted with a nonzero exit
// code, e.g. because a telemetry integrity check failed.
type GuestAbortError struct {
	ExitCode uint32
	Journal  []uint32
}

// Error implements the error interface.
func (e *GuestAbortError) Error() string {
	return fmt.Sprintf("zkvm: guest aborted with exit code %d", e.ExitCode)
}

// Prove executes the guest over the private input and generates a
// receipt. Trapped or aborted executions return an error and no
// receipt — tampered telemetry cannot be proven.
func Prove(prog *Program, input []uint32, opts ProveOptions) (*Receipt, error) {
	seed, err := newSeed()
	if err != nil {
		return nil, err
	}
	return ProveWithSeed(prog, input, opts, seed)
}

// ProveExecution seals an already-traced execution.
func ProveExecution(ex *Execution, opts ProveOptions) (*Receipt, error) {
	seed, err := newSeed()
	if err != nil {
		return nil, err
	}
	return proveExecutionSeeded(ex, opts, &seed)
}

// newSeed draws a fresh salt seed, so commitments hide unopened rows.
func newSeed() ([32]byte, error) {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return seed, fmt.Errorf("zkvm: salt seed: %w", err)
	}
	return seed, nil
}

// checks returns the sampled-check count per family.
func (o *ProveOptions) checks() int {
	if o.Checks <= 0 {
		return DefaultChecks
	}
	return o.Checks
}

// proveExecutionSeeded is the deterministic core of ProveExecution:
// given the same execution, options, and salt seed it emits the same
// receipt byte-for-byte at any Parallelism — all concurrency below is
// index-partitioned over committed tables, never order-dependent.
func proveExecutionSeeded(ex *Execution, opts ProveOptions, seed *[32]byte) (*Receipt, error) {
	if len(ex.Rows) == 0 {
		return nil, fmt.Errorf("zkvm: empty execution trace")
	}
	receipt := &Receipt{
		ImageID:  ex.Program.ID(),
		ExitCode: ex.ExitCode,
		Journal:  append([]uint32(nil), ex.Journal...),
	}
	s := &receipt.Seal
	s.NumRows, s.NumMem = uint32(len(ex.Rows)), uint32(len(ex.MemLog))
	tr := transcript.New("zkvm-seal-v2")
	absorbPublic(tr, receipt)
	t := commitTrace(ex, s, tr, seed, newWorkerPool(opts.Parallelism), opts.Observer)
	sealDone := stageTimer(opts.Observer, StageSeal)
	t.openChecks(s, tr, ex, opts.checks())
	t.release()
	sealDone()
	return receipt, nil
}

// traceTables are the five tables a seal commits: the trace rows, the
// memory log in program and in (Addr, Seq) order, and the running
// product of each ordering.
type traceTables struct {
	exec, memProg, memSort, prodProg, prodSort *table
	// sorted is the (Addr, Seq)-ordered log memSort commits, a slab
	// from the pool.
	sorted []MemEntry
}

// commitTrace commits an execution's five tables into s and tr in the
// order both verifiers replay: the three phase-1 roots, the (alpha,
// gamma) memory challenges, then the two running-product roots. tr
// must already hold the public statement.
func commitTrace(ex *Execution, s *Seal, tr *transcript.Transcript, seed *[32]byte, pool *workerPool, obs StageObserver) *traceTables {
	nRows, nMem := len(ex.Rows), len(ex.MemLog)
	t := &traceTables{}

	// Address-order the memory log up front so the sort cost is
	// attributed to its own stage and the three commits below are
	// symmetric.
	sortDone := stageTimer(obs, StageMemSort)
	t.sorted = sortedMemLog(ex.MemLog)
	sortDone()
	sorted := t.sorted

	// Phase 1 commitments (before the memory challenges): three
	// independent tables, committed concurrently.
	commitDone := stageTimer(obs, StageMerkleCommit)
	com := pool.split(3)
	pool.do(
		func() {
			t.exec = commitStream(seed, treeExec, nRows, rowBytes, com,
				func(i int, dst []byte) { encodeRowInto(dst, &ex.Rows[i]) })
		},
		func() {
			t.memProg = commitStream(seed, treeMemProg, nMem, memBytes, com,
				func(i int, dst []byte) { encodeMemEntryInto(dst, &ex.MemLog[i]) })
		},
		func() {
			t.memSort = commitStream(seed, treeMemSort, nMem, memBytes, com,
				func(i int, dst []byte) { encodeMemEntryInto(dst, &sorted[i]) })
		},
	)
	commitDone()
	s.ExecRoot = t.exec.root()
	s.MemProgRoot = t.memProg.root()
	s.MemSortRoot = t.memSort.root()
	tr.Append("exec-root", s.ExecRoot[:])
	tr.Append("memprog-root", s.MemProgRoot[:])
	tr.Append("memsort-root", s.MemSortRoot[:])
	alpha := tr.ChallengeElem("alpha")
	gamma := tr.ChallengeElem("gamma")

	// Phase 2: running products under (alpha, gamma). The two product
	// columns are independent; each is scanned (parallel prefix
	// product) and committed on half the pool. The field-element
	// columns are kept (8 bytes/row) for the openings.
	prodDone := stageTimer(obs, StageGrandProduct)
	p2 := pool.split(2)
	pool.do(
		func() {
			prod := runningProducts(ex.MemLog, alpha, gamma, p2)
			t.prodProg = commitStream(seed, treeProdProg, nMem, prodBytes, p2,
				func(i int, dst []byte) { encodeProdInto(dst, prod[i]) })
		},
		func() {
			prod := runningProducts(sorted, alpha, gamma, p2)
			t.prodSort = commitStream(seed, treeProdSort, nMem, prodBytes, p2,
				func(i int, dst []byte) { encodeProdInto(dst, prod[i]) })
		},
	)
	prodDone()
	s.ProdProgRoot = t.prodProg.root()
	s.ProdSortRoot = t.prodSort.root()
	tr.Append("prodprog-root", s.ProdProgRoot[:])
	tr.Append("prodsort-root", s.ProdSortRoot[:])
	return t
}

// openChecks fills s with the boundary openings and the exec, prod and
// sort sampled checks, drawn from tr in the exact order the verifier
// derives them.
func (t *traceTables) openChecks(s *Seal, tr *transcript.Transcript, ex *Execution, checks int) {
	nRows, nMem := len(ex.Rows), len(ex.MemLog)
	s.FirstRow = t.exec.open(0)
	s.LastRow = t.exec.open(nRows - 1)
	if nMem > 0 {
		s.MemProgFirst = t.memProg.open(0)
		s.MemSortFirst = t.memSort.open(0)
		s.ProdProgFirst = t.prodProg.open(0)
		s.ProdSortFirst = t.prodSort.open(0)
		s.ProdProgLast = t.prodProg.open(nMem - 1)
		s.ProdSortLast = t.prodSort.open(nMem - 1)
	}
	if nRows >= 2 {
		for _, i := range tr.ChallengeIndices("exec", checks, nRows-1) {
			c := ExecCheck{RowI: t.exec.open(i), RowJ: t.exec.open(i + 1)}
			for m := ex.Rows[i].MemPtr; m < ex.Rows[i+1].MemPtr; m++ {
				c.Mem = append(c.Mem, t.memProg.open(int(m)))
			}
			s.ExecChecks = append(s.ExecChecks, c)
		}
	}
	if nMem >= 2 {
		for _, i := range tr.ChallengeIndices("prod", checks, nMem-1) {
			s.ProdChecks = append(s.ProdChecks, ProdCheck{
				Entry: t.memProg.open(i + 1),
				ProdI: t.prodProg.open(i),
				ProdJ: t.prodProg.open(i + 1),
			})
		}
		for _, i := range tr.ChallengeIndices("sort", checks, nMem-1) {
			s.SortChecks = append(s.SortChecks, SortCheck{
				EntryI: t.memSort.open(i),
				EntryJ: t.memSort.open(i + 1),
				ProdI:  t.prodSort.open(i),
				ProdJ:  t.prodSort.open(i + 1),
			})
		}
	}
}

// release recycles the sorted log and the trees once everything the
// receipt needs has been copied out of them.
func (t *traceTables) release() {
	putMemSlab(t.sorted)
	for _, tb := range []*table{t.exec, t.memProg, t.memSort, t.prodProg, t.prodSort} {
		tb.release()
	}
}

// absorbPublic binds the receipt's public statement into the
// transcript: image ID, exit code, journal, and table lengths.
func absorbPublic(tr *transcript.Transcript, r *Receipt) {
	tr.Append("image-id", r.ImageID[:])
	tr.AppendUint64("exit-code", uint64(r.ExitCode))
	tr.Append("journal", r.JournalBytes())
	tr.AppendUint64("num-rows", uint64(r.Seal.NumRows))
	tr.AppendUint64("num-mem", uint64(r.Seal.NumMem))
}
