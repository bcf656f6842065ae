package zkvm

import (
	"errors"
	"strings"
	"testing"

	"zkflow/internal/field"
	"zkflow/internal/merkle"
)

// sumProgram builds a guest that reads n input words, stores them to
// memory, hashes the region, journals the running sum and the first
// digest word, then halts cleanly. It exercises every subsystem:
// input, memory, hashing, journal, branches.
func sumProgram() *Program {
	a := NewAssembler()
	a.Comment("r4 = n")
	a.ReadInput(R4)
	a.Li(R5, 0)    // i
	a.Li(R6, 0)    // sum
	a.Li(R7, 1000) // buffer base
	a.Label("loop")
	a.Beq(R5, R4, "done")
	a.ReadInput(R8)
	a.Add(R6, R6, R8)
	a.Add(R9, R7, R5)
	a.Sw(R8, R9, 0)
	a.Addi(R5, R5, 1)
	a.J("loop")
	a.Label("done")
	a.Comment("hash the buffer")
	a.Mov(R1, R7)
	a.Mov(R2, R4)
	a.Li(R3, 2000)
	a.Ecall(SysHash)
	a.WriteJournal(R6)
	a.Lw(R10, R0, 2000)
	a.WriteJournal(R10)
	a.HaltCode(0)
	return a.MustAssemble()
}

func sumInput(n int) []uint32 {
	in := make([]uint32, 0, n+1)
	in = append(in, uint32(n))
	for i := 0; i < n; i++ {
		in = append(in, uint32(i*7+1))
	}
	return in
}

func proveSum(t *testing.T, n int) (*Program, *Receipt) {
	t.Helper()
	prog := sumProgram()
	r, err := Prove(prog, sumInput(n), ProveOptions{Checks: 8})
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	return prog, r
}

func TestProveVerifyRoundTrip(t *testing.T) {
	prog, r := proveSum(t, 16)
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	want := uint32(0)
	for i := 0; i < 16; i++ {
		want += uint32(i*7 + 1)
	}
	if r.Journal[0] != want {
		t.Fatalf("journal sum %d, want %d", r.Journal[0], want)
	}
}

func TestVerifyRejectsWrongProgram(t *testing.T) {
	_, r := proveSum(t, 4)
	other := NewAssembler()
	other.HaltCode(0)
	if err := Verify(other.MustAssemble(), r, VerifyOptions{}); err == nil {
		t.Fatal("receipt verified under the wrong program")
	}
}

func TestVerifyRejectsTamperedJournal(t *testing.T) {
	prog, r := proveSum(t, 8)
	r.Journal[0]++
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("tampered journal accepted")
	}
}

func TestVerifyRejectsTamperedExitCode(t *testing.T) {
	prog, r := proveSum(t, 4)
	r.ExitCode = 1
	if err := Verify(prog, r, VerifyOptions{AllowNonZeroExit: true}); err == nil {
		t.Fatal("tampered exit code accepted")
	}
}

func TestVerifyRejectsTamperedRoots(t *testing.T) {
	prog, r := proveSum(t, 4)
	r.Seal.ExecRoot[0] ^= 1
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("tampered exec root accepted")
	}
}

func TestVerifyRejectsTamperedOpening(t *testing.T) {
	prog, r := proveSum(t, 4)
	if len(r.Seal.ExecChecks) == 0 {
		t.Fatal("no exec checks")
	}
	r.Seal.ExecChecks[0].RowI.Data[4]++ // mutate a register byte
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("tampered opening accepted")
	}
}

// proveSumPartialGroups proves the sum program at the smallest input
// whose trace and memory log both end in a partial leaf group, so the
// last group of every table has zero padding slots.
func proveSumPartialGroups(t *testing.T) (*Program, *Receipt) {
	t.Helper()
	for n := 4; n < 64; n++ {
		prog, r := proveSum(t, n)
		if r.Seal.NumRows%rowsPerLeaf != 0 && r.Seal.NumMem%rowsPerLeaf != 0 {
			return prog, r
		}
	}
	t.Fatal("no input gives partial last groups")
	return nil, nil
}

// TestVerifyRejectsTamperedPackedOpening attacks the packed leaf
// format: an opening carries the whole leaf group of its entry, and
// the verifier must bind the checked slot, the group's size and
// position, the padding and every unchecked slot.
func TestVerifyRejectsTamperedPackedOpening(t *testing.T) {
	prog, base := proveSumPartialGroups(t)
	bin, err := base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	expectFail := func(name string, mut func(s *Seal)) {
		t.Helper()
		r, err := UnmarshalReceipt(bin)
		if err != nil {
			t.Fatal(err)
		}
		mut(&r.Seal)
		if err := Verify(prog, r, VerifyOptions{}); err == nil {
			t.Errorf("%s: tampered receipt verified", name)
		} else if !errors.Is(err, ErrVerify) {
			t.Errorf("%s: error not wrapped: %v", name, err)
		}
	}
	// otherSlot is a slot of o's group other than the checked one.
	otherSlot := func(o *Opening) int { return (o.Index%rowsPerLeaf + 1) % rowsPerLeaf }

	expectFail("index moved to the next slot", func(s *Seal) {
		s.ExecChecks[0].RowI.Index++
	})
	expectFail("index moved to another group", func(s *Seal) {
		s.ExecChecks[0].RowI.Index += rowsPerLeaf
	})
	expectFail("checked slot swapped with its neighbour", func(s *Seal) {
		o := &s.ExecChecks[0].RowI
		a, b := o.Index%rowsPerLeaf, otherSlot(o)
		sa := append([]byte(nil), o.Data[a*rowBytes:(a+1)*rowBytes]...)
		copy(o.Data[a*rowBytes:], o.Data[b*rowBytes:(b+1)*rowBytes])
		copy(o.Data[b*rowBytes:], sa)
	})
	expectFail("group one byte long", func(s *Seal) {
		s.ExecChecks[0].RowI.Data = append(s.ExecChecks[0].RowI.Data, 0)
	})
	expectFail("group one byte short", func(s *Seal) {
		o := &s.ExecChecks[0].RowI
		o.Data = o.Data[:len(o.Data)-1]
	})
	expectFail("memory group one byte long", func(s *Seal) {
		s.ProdChecks[0].Entry.Data = append(s.ProdChecks[0].Entry.Data, 0)
	})
	expectFail("product group one byte short", func(s *Seal) {
		o := &s.SortChecks[0].ProdI
		o.Data = o.Data[:len(o.Data)-1]
	})
	expectFail("neighbour group substituted", func(s *Seal) {
		c := &s.ExecChecks[0]
		for k := range s.ExecChecks {
			o := s.ExecChecks[k].RowI
			if o.Index/rowsPerLeaf != c.RowI.Index/rowsPerLeaf {
				o.Index = c.RowI.Index
				c.RowI = o
				return
			}
		}
		t.Fatal("every check opened the same group")
	})
	expectFail("nonzero pad slot in the last trace group", func(s *Seal) {
		s.LastRow.Data[len(s.LastRow.Data)-1] = 1
	})
	expectFail("nonzero pad slot in the last product group", func(s *Seal) {
		s.ProdSortLast.Data[len(s.ProdSortLast.Data)-1] = 1
	})
	expectFail("unchecked trace slot tampered", func(s *Seal) {
		o := &s.ExecChecks[0].RowJ
		o.Data[otherSlot(o)*rowBytes+4]++
	})
	expectFail("unchecked memory slot tampered", func(s *Seal) {
		o := &s.SortChecks[0].EntryI
		o.Data[otherSlot(o)*memBytes]++
	})
	expectFail("unchecked product slot tampered", func(s *Seal) {
		o := &s.ProdChecks[0].ProdJ
		o.Data[otherSlot(o)*prodBytes]++
	})

	// The control: the untouched receipt verifies.
	r, err := UnmarshalReceipt(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("control: %v", err)
	}
}

// TestOpeningRejectsNonzeroPadding checks the padding rule on its own:
// a last group whose pad slot is nonzero but correctly committed (as a
// dishonest prover could build it) still fails, while the same group
// with zero padding verifies.
func TestOpeningRejectsNonzeroPadding(t *testing.T) {
	const n = 6 // two groups, the second with two pad slots
	blk := saltCipher(&[32]byte{9})
	groups := make([][]byte, numLeaves(n))
	for g := range groups {
		groups[g] = make([]byte, rowsPerLeaf*prodBytes)
		for j := range rowsPerLeaf {
			if i := g*rowsPerLeaf + j; i < n {
				encodeProdInto(groups[g][j*prodBytes:], field.New(uint64(i+1)))
			}
		}
	}
	open := func() (merkle.Hash, Opening) {
		hashes := make([]merkle.Hash, len(groups))
		for g := range groups {
			hashes[g] = saltedLeafHash(saltOf(blk, treeProdProg, g), groups[g])
		}
		tree := merkle.BuildHashes(hashes)
		proof, err := tree.Prove(1)
		if err != nil {
			t.Fatal(err)
		}
		return tree.Root(), Opening{Index: n - 1, Salt: saltOf(blk, treeProdProg, 1), Data: groups[1], Path: proof.Path}
	}
	root, o := open()
	if got, err := o.prod(root, n-1, n); err != nil || got != field.New(n) {
		t.Fatalf("honest last group: %v, %v", got, err)
	}
	// A pad slot is not an entry, even though the group's hash holds.
	past := o
	past.Index = n
	if _, err := past.verify(root, n, n, prodBytes); err == nil {
		t.Fatal("opening of a pad slot past the end of the table accepted")
	}
	groups[1][len(groups[1])-1] = 1
	root, o = open()
	if _, err := o.verify(root, n-1, n, prodBytes); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("committed nonzero padding: got %v, want a padding error", err)
	}
}

func TestVerifyRejectsTruncatedChecks(t *testing.T) {
	prog, r := proveSum(t, 4)
	r.Seal.ExecChecks = r.Seal.ExecChecks[:1]
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("truncated checks accepted")
	}
}

func TestGuestAbortRefusesToProve(t *testing.T) {
	a := NewAssembler()
	a.HaltCode(3)
	prog := a.MustAssemble()
	_, err := Prove(prog, nil, ProveOptions{})
	var abort *GuestAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("want GuestAbortError, got %v", err)
	}
	if abort.ExitCode != 3 {
		t.Fatalf("exit code %d", abort.ExitCode)
	}
}

func TestGuestAbortAllowedWhenOpted(t *testing.T) {
	a := NewAssembler()
	a.HaltCode(3)
	prog := a.MustAssemble()
	r, err := Prove(prog, nil, ProveOptions{AllowNonZeroExit: true, Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("nonzero exit accepted by default verify")
	}
	if err := Verify(prog, r, VerifyOptions{AllowNonZeroExit: true}); err != nil {
		t.Fatalf("opted-in verify failed: %v", err)
	}
}

func TestMinimalProgram(t *testing.T) {
	// Single halt instruction: one row, no memory log.
	a := NewAssembler()
	a.Halt() // exit code r1 = 0
	prog := a.MustAssemble()
	r, err := Prove(prog, nil, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seal.NumRows != 1 || r.Seal.NumMem != 0 {
		t.Fatalf("rows=%d mem=%d", r.Seal.NumRows, r.Seal.NumMem)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestNoMemoryProgram(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 1)
	a.Li(R3, 2)
	a.Add(R4, R2, R3)
	a.WriteJournal(R4)
	a.HaltCode(0)
	prog := a.MustAssemble()
	r, err := Prove(prog, nil, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seal.NumMem != 0 {
		t.Fatalf("unexpected memory log of %d", r.Seal.NumMem)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestSingleMemoryEntry(t *testing.T) {
	a := NewAssembler()
	a.Li(R2, 9)
	a.Li(R3, 5)
	a.Sw(R2, R3, 0)
	a.HaltCode(0)
	prog := a.MustAssemble()
	r, err := Prove(prog, nil, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Seal.NumMem != 1 {
		t.Fatalf("mem entries = %d", r.Seal.NumMem)
	}
	if err := Verify(prog, r, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestReceiptMarshalRoundTrip(t *testing.T) {
	prog, r := proveSum(t, 8)
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := UnmarshalReceipt(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r2, VerifyOptions{}); err != nil {
		t.Fatalf("decoded receipt failed verify: %v", err)
	}
	if r2.Size() != len(data) {
		t.Fatalf("Size()=%d, marshal=%d", r2.Size(), len(data))
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalReceipt([]byte("not a receipt")); err == nil {
		t.Fatal("garbage accepted")
	}
	prog, r := proveSum(t, 2)
	_ = prog
	data, _ := r.MarshalBinary()
	if _, err := UnmarshalReceipt(data[:len(data)-3]); err == nil {
		t.Fatal("truncated receipt accepted")
	}
	if _, err := UnmarshalReceipt(append(data, 0)); err == nil {
		t.Fatal("padded receipt accepted")
	}
}

func TestSealSizeMatchesEncoding(t *testing.T) {
	_, r := proveSum(t, 8)
	// SealSize is an accounting helper; it must at least be positive
	// and dominated by the receipt encoding.
	if r.SealSize() <= 0 || r.SealSize() > r.Size() {
		t.Fatalf("seal=%d receipt=%d", r.SealSize(), r.Size())
	}
}

func TestJournalGrowsLinearly(t *testing.T) {
	a := NewAssembler()
	a.ReadInput(R4)
	a.Li(R5, 0)
	a.Label("loop")
	a.Beq(R5, R4, "done")
	a.WriteJournal(R5)
	a.Addi(R5, R5, 1)
	a.J("loop")
	a.Label("done")
	a.HaltCode(0)
	prog := a.MustAssemble()
	r10, err := Prove(prog, []uint32{10}, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	r100, err := Prove(prog, []uint32{100}, ProveOptions{Checks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r100.JournalSize() != 10*r10.JournalSize() {
		t.Fatalf("journal sizes %d vs %d", r10.JournalSize(), r100.JournalSize())
	}
}

func TestLeakageReport(t *testing.T) {
	_, r := proveSum(t, 32)
	rep := Leakage(r)
	if rep.OpenedRows == 0 || rep.OpenedRows > rep.TotalRows {
		t.Fatalf("opened rows %d of %d", rep.OpenedRows, rep.TotalRows)
	}
	if rep.RowFraction <= 0 || rep.RowFraction > 1 {
		t.Fatalf("row fraction %f", rep.RowFraction)
	}
	if rep.MemFraction <= 0 || rep.MemFraction > 1 {
		t.Fatalf("mem fraction %f", rep.MemFraction)
	}
	// Every row of every opened trace group is revealed: recount them
	// from the groups' contents, not from the checked indices.
	s := &r.Seal
	openings := []*Opening{&s.FirstRow, &s.LastRow}
	for i := range s.ExecChecks {
		openings = append(openings, &s.ExecChecks[i].RowI, &s.ExecChecks[i].RowJ)
	}
	revealed := map[Row]bool{}
	for _, o := range openings {
		for j := 0; j < rowsPerLeaf && o.Index/rowsPerLeaf*rowsPerLeaf+j < rep.TotalRows; j++ {
			row, err := decodeRow(o.Data[j*rowBytes : (j+1)*rowBytes])
			if err != nil {
				t.Fatal(err)
			}
			revealed[row] = true
		}
	}
	// Rows are distinct (each carries its own step's PC and cursors in
	// this loop program), so distinct contents are distinct rows.
	if rep.OpenedRows != len(revealed) {
		t.Fatalf("opened rows %d, opened groups reveal %d", rep.OpenedRows, len(revealed))
	}
	if rep.OpenedRows <= 2*len(s.ExecChecks) {
		t.Fatalf("opened rows %d do not exceed the %d checked rows", rep.OpenedRows, 2*len(s.ExecChecks))
	}
}

func TestSaltsHideUnopenedRows(t *testing.T) {
	// Two executions with identical public statements but different
	// private inputs must produce different commitments (salting) —
	// and both must verify.
	a := NewAssembler()
	a.ReadInput(R4) // private word, never journaled
	a.Li(R5, 600)
	a.Sw(R4, R5, 0)
	a.WriteJournal(R0)
	a.HaltCode(0)
	prog := a.MustAssemble()
	r1, err := Prove(prog, []uint32{111}, ProveOptions{Checks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Prove(prog, []uint32{222}, ProveOptions{Checks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Seal.ExecRoot == r2.Seal.ExecRoot {
		t.Fatal("commitments equal across different salts/inputs")
	}
	for _, r := range []*Receipt{r1, r2} {
		if err := Verify(prog, r, VerifyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentedProvingMatches(t *testing.T) {
	prog := sumProgram()
	for _, par := range []int{1, 2, 4, 8} {
		r, err := Prove(prog, sumInput(32), ProveOptions{Checks: 4, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if err := Verify(prog, r, VerifyOptions{}); err != nil {
			t.Fatalf("parallelism=%d verify: %v", par, err)
		}
	}
}

// forgeReceipt tries the classic memory attack: replay a stale value.
// We re-prove with a corrupted memory log and check that verification
// notices via the multiset/product machinery (or opening checks).
func TestForgedMemoryValueRejected(t *testing.T) {
	prog := sumProgram()
	ex, err := Execute(prog, sumInput(8), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one read value in the log (as if the prover lied about
	// what memory returned) and re-seal with many checks so sampling
	// hits the inconsistency with overwhelming probability.
	for i := range ex.MemLog {
		if !ex.MemLog[i].IsWrite {
			ex.MemLog[i].Val ^= 0xff
			break
		}
	}
	r, err := ProveExecution(ex, ProveOptions{Checks: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("forged memory value accepted")
	}
}

func TestForgedRegisterRejected(t *testing.T) {
	prog := sumProgram()
	ex, err := Execute(prog, sumInput(8), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Claim a different sum in the middle of the trace.
	mid := len(ex.Rows) / 2
	ex.Rows[mid].Regs[R6] += 100
	// Two of ~len(Rows) transitions are now inconsistent; 2000 samples
	// make the miss probability about e^-33.
	r, err := ProveExecution(ex, ProveOptions{Checks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(prog, r, VerifyOptions{}); err == nil {
		t.Fatal("forged register accepted")
	}
}

func BenchmarkProveSum256(b *testing.B) {
	prog := sumProgram()
	in := sumInput(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prove(prog, in, ProveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySum256(b *testing.B) {
	prog := sumProgram()
	r, err := Prove(prog, sumInput(256), ProveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(prog, r, VerifyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
