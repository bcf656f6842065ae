package zkvm

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"zkflow/internal/field"
	"zkflow/internal/merkle"
	"zkflow/internal/transcript"
)

// treeBoundary is the salt domain label of boundary-image trees
// (continuing the treeExec..treeProdSort sequence in trace.go).
const treeBoundary byte = 6

// wordsToBytes serialises journal words little-endian.
func wordsToBytes(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// ProveSegmented executes the guest and proves it as a chain of
// bounded-cycle segment receipts (opts.SegmentCycles steps each; 0 or
// anything below minSegmentCycles is floored). Segments are proved
// concurrently up to opts.Parallelism; the composite receipt is
// byte-deterministic for a fixed salt seed regardless of parallelism,
// because every segment and boundary derives an independent sub-seed
// by index.
func ProveSegmented(prog *Program, input []uint32, opts ProveOptions) (*CompositeReceipt, error) {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("zkvm: salt seed: %w", err)
	}
	return proveSegmentedSeeded(prog, input, opts, &seed)
}

// ProveAny dispatches on opts.SegmentCycles: zero preserves today's
// single-segment receipts (and their exact bytes); positive values
// produce a composite receipt of SegmentCycles-step slices.
func ProveAny(prog *Program, input []uint32, opts ProveOptions) (AnyReceipt, error) {
	if opts.SegmentCycles > 0 {
		return ProveSegmented(prog, input, opts)
	}
	return Prove(prog, input, opts)
}

// proveSegmentedSeeded is the deterministic core of ProveSegmented.
func proveSegmentedSeeded(prog *Program, input []uint32, opts ProveOptions, seed *[32]byte) (*CompositeReceipt, error) {
	execDone := stageTimer(opts.Observer, StageExecute)
	segs, err := executeSegmented(prog, input, ExecOptions{MaxSteps: opts.MaxSteps}, opts.SegmentCycles)
	execDone()
	if err != nil {
		return nil, err
	}
	releaseSegs := func() {
		for _, s := range segs {
			putRowSlab(s.ex.Rows)
			putMemSlab(s.ex.MemLog)
			s.ex.Rows, s.ex.MemLog = nil, nil
		}
	}
	last := segs[len(segs)-1]
	if last.ex.ExitCode != 0 && !opts.AllowNonZeroExit {
		journal := make([]uint32, 0)
		for _, s := range segs {
			journal = append(journal, s.ex.Journal...)
		}
		releaseSegs()
		return nil, &GuestAbortError{ExitCode: last.ex.ExitCode, Journal: journal}
	}

	pool := newWorkerPool(opts.Parallelism)

	// Boundary-image trees: boundary k is segment k's entry image ==
	// segment k-1's exit image; both adjacent segment proofs open
	// leaves of the same tree under the same boundary sub-seed.
	bndDone := stageTimer(opts.Observer, StageBoundaryCommit)
	bndSeeds := make([][32]byte, len(segs))
	bndTrees := make([]*merkle.Tree, len(segs)) // bndTrees[k] commits segs[k].entryImg
	for k := 1; k < len(segs); k++ {
		img := segs[k].entryImg
		bndSeeds[k] = deriveSubSeed(seed, "bnd", k)
		bs := &bndSeeds[k]
		bndTrees[k] = commitStream(bs, treeBoundary, len(img), imgBytes, pool,
			func(i int, dst []byte) { encodeImagePairInto(dst, img[i]) })
		root := bndTrees[k].Root()
		segs[k].entry.MemRoot = root
		segs[k-1].exit.MemRoot = root
	}
	bndDone()

	// Prove segments concurrently: a bounded crew of claim-by-index
	// workers, each segment sealed under its own derived sub-seed with
	// an even share of the pool. Receipt bytes never depend on worker
	// widths or scheduling (asserted by the determinism tests).
	inner := pool.split(len(segs))
	receipts := make([]*SegmentReceipt, len(segs))
	errs := make([]error, len(segs))
	var next atomic.Int64
	next.Store(-1)
	crew := pool.workers
	if crew > len(segs) {
		crew = len(segs)
	}
	var wg sync.WaitGroup
	for w := 0; w < crew; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(segs) {
					return
				}
				segSeed := deriveSubSeed(seed, "seg", i)
				var entrySeed, exitSeed *[32]byte
				var entryTree, exitTree *merkle.Tree
				if i > 0 {
					entrySeed, entryTree = &bndSeeds[i], bndTrees[i]
				}
				if i+1 < len(segs) {
					exitSeed, exitTree = &bndSeeds[i+1], bndTrees[i+1]
				}
				receipts[i], errs[i] = proveSegmentSeeded(segs[i], opts, &segSeed,
					entrySeed, entryTree, exitSeed, exitTree, inner)
			}
		}()
	}
	wg.Wait()
	for k := 1; k < len(bndTrees); k++ {
		bndTrees[k].Release()
	}
	releaseSegs()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return &CompositeReceipt{Segments: receipts}, nil
}

// proveSegmentSeeded seals one segment. It is proveExecutionSeeded
// with the continuation deltas: a "zkvm-seg-v1" transcript that binds
// the entry/exit states, and the import/exit/cover sampled-check
// families over the shared boundary-image trees.
func proveSegmentSeeded(seg *segmentExecution, opts ProveOptions, seed *[32]byte,
	entrySeed *[32]byte, entryTree *merkle.Tree,
	exitSeed *[32]byte, exitTree *merkle.Tree,
	pool *workerPool) (*SegmentReceipt, error) {

	ex := seg.ex
	checks := opts.Checks
	if checks <= 0 {
		checks = DefaultChecks
	}
	nRows := len(ex.Rows)
	if nRows == 0 {
		return nil, fmt.Errorf("zkvm: empty segment trace")
	}
	nMem := len(ex.MemLog)

	sortDone := stageTimer(opts.Observer, StageMemSort)
	sorted := sortedMemLog(ex.MemLog)
	sortDone()

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

	sr := &SegmentReceipt{
		ImageID:  ex.Program.ID(),
		Index:    uint32(seg.index),
		Final:    seg.final,
		ExitCode: ex.ExitCode,
		Journal:  append([]uint32(nil), ex.Journal...),
		Entry:    seg.entry,
		Exit:     seg.exit,
	}
	s := &sr.Seal
	s.NumRows = uint32(nRows)
	s.NumMem = uint32(nMem)
	s.ExecRoot = execTree.Root()
	s.MemProgRoot = memProgTree.Root()
	s.MemSortRoot = memSortTree.Root()

	tr := transcript.New("zkvm-seg-v1")
	absorbSegmentPublic(tr, sr)
	tr.Append("exec-root", s.ExecRoot[:])
	tr.Append("memprog-root", s.MemProgRoot[:])
	tr.Append("memsort-root", s.MemSortRoot[:])
	alpha := tr.ChallengeElem("alpha")
	gamma := tr.ChallengeElem("gamma")

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

	encRow := func(i int) []byte { return encodeRow(&ex.Rows[i]) }
	encMemProg := func(i int) []byte { return encodeMemEntry(&ex.MemLog[i]) }
	encMemSort := func(i int) []byte { return encodeMemEntry(&sorted[i]) }
	encProdProg := func(i int) []byte { return encodeProd(prodProg[i]) }
	encProdSort := func(i int) []byte { return encodeProd(prodSort[i]) }

	mustOpen := func(t *merkle.Tree, sd *[32]byte, label byte, enc func(int) []byte, idx int) Opening {
		proof, err := t.Prove(idx)
		if err != nil {
			panic(fmt.Sprintf("zkvm: opening leaf %d: %v", idx, err))
		}
		return Opening{
			Index: idx,
			Salt:  deriveSalt(sd, label, idx),
			Data:  enc(idx),
			Path:  proof.Path,
		}
	}
	open := func(t *merkle.Tree, label byte, enc func(int) []byte, idx int) Opening {
		return mustOpen(t, seed, label, enc, idx)
	}

	s.FirstRow = open(execTree, treeExec, encRow, 0)
	s.LastRow = open(execTree, treeExec, encRow, nRows-1)
	if nMem > 0 {
		s.MemProgFirst = open(memProgTree, treeMemProg, encMemProg, 0)
		s.MemSortFirst = open(memSortTree, treeMemSort, encMemSort, 0)
		s.ProdProgFirst = open(prodProgTree, treeProdProg, encProdProg, 0)
		s.ProdSortFirst = open(prodSortTree, treeProdSort, encProdSort, 0)
		s.ProdProgLast = open(prodProgTree, treeProdProg, encProdProg, nMem-1)
		s.ProdSortLast = open(prodSortTree, treeProdSort, encProdSort, nMem-1)
	}

	// Sampled checks, in the exact family order the verifier derives.
	if nRows >= 2 {
		for _, i := range tr.ChallengeIndices("exec", checks, nRows-1) {
			c := ExecCheck{
				RowI: open(execTree, treeExec, encRow, i),
				RowJ: open(execTree, treeExec, encRow, i+1),
			}
			lo := ex.Rows[i].MemPtr
			hi := ex.Rows[i+1].MemPtr
			for m := lo; m < hi; m++ {
				c.Mem = append(c.Mem, open(memProgTree, treeMemProg, encMemProg, int(m)))
			}
			s.ExecChecks = append(s.ExecChecks, c)
		}
	}
	if nMem >= 2 {
		for _, i := range tr.ChallengeIndices("prod", checks, nMem-1) {
			s.ProdChecks = append(s.ProdChecks, ProdCheck{
				Entry: open(memProgTree, treeMemProg, encMemProg, i+1),
				ProdI: open(prodProgTree, treeProdProg, encProdProg, i),
				ProdJ: open(prodProgTree, treeProdProg, encProdProg, i+1),
			})
		}
		for _, i := range tr.ChallengeIndices("sort", checks, nMem-1) {
			s.SortChecks = append(s.SortChecks, SortCheck{
				EntryI: open(memSortTree, treeMemSort, encMemSort, i),
				EntryJ: open(memSortTree, treeMemSort, encMemSort, i+1),
				ProdI:  open(prodSortTree, treeProdSort, encProdSort, i),
				ProdJ:  open(prodSortTree, treeProdSort, encProdSort, i+1),
			})
		}
	}

	// Continuation families. Import: entry-image pair i materialised as
	// the i-th program-order log entry.
	if sr.Entry.MemLen > 0 {
		encImg := func(i int) []byte { return encodeImagePair(seg.entryImg[i]) }
		for _, i := range tr.ChallengeIndices("import", checks, int(sr.Entry.MemLen)) {
			sr.ImportChecks = append(sr.ImportChecks, ImportCheck{
				MemProg: open(memProgTree, treeMemProg, encMemProg, i),
				Img:     mustOpen(entryTree, entrySeed, treeBoundary, encImg, i),
			})
		}
	}
	// Exit: every exit-image pair is the last sorted-log access of its
	// address with the same (nonzero) value.
	if !seg.final && sr.Exit.MemLen > 0 {
		encImg := func(i int) []byte { return encodeImagePair(seg.exitImg[i]) }
		for _, j := range tr.ChallengeIndices("exit", checks, int(sr.Exit.MemLen)) {
			addr := seg.exitImg[j].Addr
			// Last sorted position with this address.
			p := sort.Search(len(sorted), func(i int) bool { return sorted[i].Addr > addr }) - 1
			ec := ExitCheck{
				Img:   mustOpen(exitTree, exitSeed, treeBoundary, encImg, j),
				Pos:   uint32(p),
				SortP: open(memSortTree, treeMemSort, encMemSort, p),
			}
			if p+1 < nMem {
				ec.HasP1 = true
				ec.SortP1 = open(memSortTree, treeMemSort, encMemSort, p+1)
			}
			sr.ExitChecks = append(sr.ExitChecks, ec)
		}
	}
	// Cover: every last access that leaves a nonzero value appears in
	// the exit image.
	if !seg.final && nMem > 0 {
		encImg := func(i int) []byte { return encodeImagePair(seg.exitImg[i]) }
		for _, i := range tr.ChallengeIndices("cover", checks, nMem) {
			cc := CoverCheck{EntryI: open(memSortTree, treeMemSort, encMemSort, i)}
			isLast := i+1 == nMem
			if !isLast {
				cc.HasJ = true
				cc.EntryJ = open(memSortTree, treeMemSort, encMemSort, i+1)
				isLast = sorted[i+1].Addr != sorted[i].Addr
			}
			if isLast && sorted[i].Val != 0 {
				addr := sorted[i].Addr
				j := sort.Search(len(seg.exitImg), func(k int) bool { return seg.exitImg[k].Addr >= addr })
				cc.HasImg = true
				cc.ExitIdx = uint32(j)
				cc.Img = mustOpen(exitTree, exitSeed, treeBoundary, encImg, j)
			}
			sr.CoverChecks = append(sr.CoverChecks, cc)
		}
	}

	putMemSlab(sorted)
	execTree.Release()
	memProgTree.Release()
	memSortTree.Release()
	prodProgTree.Release()
	prodSortTree.Release()
	return sr, nil
}

// absorbSegmentPublic binds a segment receipt's public statement into
// the transcript: image, position and role in the chain, journal
// slice, and both boundary states. Splicing a segment into a different
// chain position, run, or journal therefore re-derives every sampled
// index and invalidates the openings.
func absorbSegmentPublic(tr *transcript.Transcript, sr *SegmentReceipt) {
	tr.Append("image-id", sr.ImageID[:])
	tr.AppendUint64("seg-index", uint64(sr.Index))
	final := uint64(0)
	if sr.Final {
		final = 1
	}
	tr.AppendUint64("seg-final", final)
	tr.AppendUint64("exit-code", uint64(sr.ExitCode))
	tr.Append("journal", wordsToBytes(sr.Journal))
	tr.Append("entry-state", encodeState(&sr.Entry))
	tr.Append("exit-state", encodeState(&sr.Exit))
	tr.AppendUint64("num-rows", uint64(sr.Seal.NumRows))
	tr.AppendUint64("num-mem", uint64(sr.Seal.NumMem))
}
