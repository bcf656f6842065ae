package zkvm

import (
	"crypto/rand"
	"fmt"

	"zkflow/internal/field"
	"zkflow/internal/merkle"
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
	execDone := stageTimer(opts.Observer, StageExecute)
	ex, err := Execute(prog, input, ExecOptions{MaxSteps: opts.MaxSteps})
	execDone()
	if err != nil {
		return nil, err
	}
	if ex.ExitCode != 0 && !opts.AllowNonZeroExit {
		abort := &GuestAbortError{ExitCode: ex.ExitCode, Journal: ex.Journal}
		releaseExecution(ex)
		return nil, abort
	}
	receipt, err := ProveExecution(ex, opts)
	// The execution was created here and the receipt does not alias its
	// trace slices, so their slabs can go back to the pool.
	releaseExecution(ex)
	return receipt, err
}

// ProveExecution seals an already-traced execution.
func ProveExecution(ex *Execution, opts ProveOptions) (*Receipt, error) {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("zkvm: salt seed: %w", err)
	}
	return proveExecutionSeeded(ex, opts, &seed)
}

// proveExecutionSeeded is the deterministic core of ProveExecution:
// given the same execution, options, and salt seed it emits the same
// receipt byte-for-byte at any Parallelism — all concurrency below is
// index-partitioned over committed tables, never order-dependent.
func proveExecutionSeeded(ex *Execution, opts ProveOptions, seed *[32]byte) (*Receipt, error) {
	checks := opts.Checks
	if checks <= 0 {
		checks = DefaultChecks
	}
	pool := newWorkerPool(opts.Parallelism)

	nRows := len(ex.Rows)
	if nRows == 0 {
		return nil, fmt.Errorf("zkvm: empty execution trace")
	}
	nMem := len(ex.MemLog)

	// Address-order the memory log up front so the sort cost is
	// attributed to its own stage and the three encode tasks below are
	// symmetric.
	sortDone := stageTimer(opts.Observer, StageMemSort)
	sorted := sortedMemLog(ex.MemLog)
	sortDone()

	// Phase 1 commitments (before the memory challenges): three
	// independent trees, committed concurrently. Encoding is fused into
	// the commit — commitStream serialises each row into per-goroutine
	// scratch and hashes it straight into the salted leaf, so no
	// payload table is ever materialized; openings below re-encode
	// their rows on demand.
	var execTree, memProgTree, memSortTree *merkle.Tree
	commitDone := stageTimer(opts.Observer, StageMerkleCommit)
	com := pool.split(3)
	pool.do(
		func() {
			execTree = commitStream(seed, treeExec, nRows, rowBytes, com,
				func(i int, dst []byte) { encodeRowInto(dst, &ex.Rows[i]) })
		},
		func() {
			memProgTree = commitStream(seed, treeMemProg, nMem, memBytes, com,
				func(i int, dst []byte) { encodeMemEntryInto(dst, &ex.MemLog[i]) })
		},
		func() {
			memSortTree = commitStream(seed, treeMemSort, nMem, memBytes, com,
				func(i int, dst []byte) { encodeMemEntryInto(dst, &sorted[i]) })
		},
	)
	commitDone()

	receipt := &Receipt{
		ImageID:  ex.Program.ID(),
		ExitCode: ex.ExitCode,
		Journal:  append([]uint32(nil), ex.Journal...),
	}
	s := &receipt.Seal
	s.NumRows = uint32(nRows)
	s.NumMem = uint32(nMem)
	s.ExecRoot = execTree.Root()
	s.MemProgRoot = memProgTree.Root()
	s.MemSortRoot = memSortTree.Root()

	tr := transcript.New("zkvm-seal-v1")
	absorbPublic(tr, receipt)
	tr.Append("exec-root", s.ExecRoot[:])
	tr.Append("memprog-root", s.MemProgRoot[:])
	tr.Append("memsort-root", s.MemSortRoot[:])
	alpha := tr.ChallengeElem("alpha")
	gamma := tr.ChallengeElem("gamma")

	// Phase 2: running products under (alpha, gamma). The two product
	// columns are independent; each is scanned (parallel prefix
	// product) and committed on half the pool. The field-element
	// columns are kept (8 bytes/row) for the openings; the encoded
	// leaf payloads are not.
	var prodProg, prodSort []field.Elem
	var prodProgTree, prodSortTree *merkle.Tree
	prodDone := stageTimer(opts.Observer, StageGrandProduct)
	p2 := pool.split(2)
	pool.do(
		func() {
			prodProg = runningProducts(ex.MemLog, alpha, gamma, p2)
			prodProgTree = commitStream(seed, treeProdProg, nMem, prodBytes, p2,
				func(i int, dst []byte) { encodeProdInto(dst, prodProg[i]) })
		},
		func() {
			prodSort = runningProducts(sorted, alpha, gamma, p2)
			prodSortTree = commitStream(seed, treeProdSort, nMem, prodBytes, p2,
				func(i int, dst []byte) { encodeProdInto(dst, prodSort[i]) })
		},
	)
	prodDone()
	s.ProdProgRoot = prodProgTree.Root()
	s.ProdSortRoot = prodSortTree.Root()
	tr.Append("prodprog-root", s.ProdProgRoot[:])
	tr.Append("prodsort-root", s.ProdSortRoot[:])

	sealDone := stageTimer(opts.Observer, StageSeal)
	defer sealDone()

	// Openings re-encode their rows on demand: the commit streamed the
	// payloads through scratch buffers, so only the ~k opened rows ever
	// get a heap payload. Encoding is deterministic, so the re-encoded
	// bytes are exactly what was hashed into the committed leaf.
	encRow := func(i int) []byte { return encodeRow(&ex.Rows[i]) }
	encMemProg := func(i int) []byte { return encodeMemEntry(&ex.MemLog[i]) }
	encMemSort := func(i int) []byte { return encodeMemEntry(&sorted[i]) }
	encProdProg := func(i int) []byte { return encodeProd(prodProg[i]) }
	encProdSort := func(i int) []byte { return encodeProd(prodSort[i]) }

	open := func(t *merkle.Tree, label byte, enc func(int) []byte, idx int) (Opening, error) {
		proof, err := t.Prove(idx)
		if err != nil {
			return Opening{}, fmt.Errorf("zkvm: opening leaf %d: %w", idx, err)
		}
		return Opening{
			Index: idx,
			Salt:  deriveSalt(seed, label, idx),
			Data:  enc(idx),
			Path:  proof.Path,
		}, nil
	}
	mustOpen := func(t *merkle.Tree, label byte, enc func(int) []byte, idx int) Opening {
		o, err := open(t, label, enc, idx)
		if err != nil {
			panic(err) // indices are derived from committed lengths
		}
		return o
	}

	// Boundary openings.
	s.FirstRow = mustOpen(execTree, treeExec, encRow, 0)
	s.LastRow = mustOpen(execTree, treeExec, encRow, nRows-1)
	if nMem > 0 {
		s.MemProgFirst = mustOpen(memProgTree, treeMemProg, encMemProg, 0)
		s.MemSortFirst = mustOpen(memSortTree, treeMemSort, encMemSort, 0)
		s.ProdProgFirst = mustOpen(prodProgTree, treeProdProg, encProdProg, 0)
		s.ProdSortFirst = mustOpen(prodSortTree, treeProdSort, encProdSort, 0)
		s.ProdProgLast = mustOpen(prodProgTree, treeProdProg, encProdProg, nMem-1)
		s.ProdSortLast = mustOpen(prodSortTree, treeProdSort, encProdSort, nMem-1)
	}

	// Sampled checks, in the exact order the verifier will derive.
	if nRows >= 2 {
		for _, i := range tr.ChallengeIndices("exec", checks, nRows-1) {
			c := ExecCheck{
				RowI: mustOpen(execTree, treeExec, encRow, i),
				RowJ: mustOpen(execTree, treeExec, encRow, i+1),
			}
			lo := ex.Rows[i].MemPtr
			hi := ex.Rows[i+1].MemPtr
			for m := lo; m < hi; m++ {
				c.Mem = append(c.Mem, mustOpen(memProgTree, treeMemProg, encMemProg, int(m)))
			}
			s.ExecChecks = append(s.ExecChecks, c)
		}
	}
	if nMem >= 2 {
		for _, i := range tr.ChallengeIndices("prod", checks, nMem-1) {
			s.ProdChecks = append(s.ProdChecks, ProdCheck{
				Entry: mustOpen(memProgTree, treeMemProg, encMemProg, i+1),
				ProdI: mustOpen(prodProgTree, treeProdProg, encProdProg, i),
				ProdJ: mustOpen(prodProgTree, treeProdProg, encProdProg, i+1),
			})
		}
		for _, i := range tr.ChallengeIndices("sort", checks, nMem-1) {
			s.SortChecks = append(s.SortChecks, SortCheck{
				EntryI: mustOpen(memSortTree, treeMemSort, encMemSort, i),
				EntryJ: mustOpen(memSortTree, treeMemSort, encMemSort, i+1),
				ProdI:  mustOpen(prodSortTree, treeProdSort, encProdSort, i),
				ProdJ:  mustOpen(prodSortTree, treeProdSort, encProdSort, i+1),
			})
		}
	}

	// Everything below the roots and openings is copied into the
	// receipt, so the scratch tables can be recycled for the next proof.
	putMemSlab(sorted)
	execTree.Release()
	memProgTree.Release()
	memSortTree.Release()
	prodProgTree.Release()
	prodSortTree.Release()
	return receipt, nil
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
