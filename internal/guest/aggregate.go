// Package guest contains the zkVM guest programs of the system — the
// in-VM counterparts of the paper's RISC Zero guests — together with
// the host-side code that builds their input tapes and parses their
// journals.
//
// The aggregation guest implements Algorithm 1 of the paper: it
// recomputes each router's RLog hash and aborts on any mismatch with the
// published commitment, authenticates the previous CLog against the
// previous Merkle root by rebuilding the tree in-VM, merge-joins the
// new records into the CLog under the canonical policy, rebuilds the
// new Merkle tree in-VM (the dominant cost, as the paper reports), and
// journals the public outputs: the chained previous-journal hash, the
// old and new roots, the router commitments, and the new leaf digests.
package guest

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"zkflow/internal/clog"
	"zkflow/internal/netflow"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// Guest abort codes (zkVM exit codes; 0 is success).
const (
	// AbortCommitMismatch: a router's RLog hash does not match its
	// published commitment (the tamper signal of §5).
	AbortCommitMismatch = 1
	// AbortCountMismatch: per-router record counts do not sum to the
	// declared total.
	AbortCountMismatch = 2
	// AbortBadPermutation: the host's sort hint is not a permutation
	// or does not produce key-sorted records.
	AbortBadPermutation = 3
	// AbortPrevUnsorted: the previous CLog is not strictly key-sorted.
	AbortPrevUnsorted = 4
	// AbortPrevRootMismatch: the previous CLog does not hash to the
	// trusted previous root.
	AbortPrevRootMismatch = 5
)

// Guest memory map (word addresses). Low memory holds scratch and
// globals; bulk regions are laid out from recBase by the guest itself
// once it knows the input sizes.
const (
	memCommit   = 64  // 8w: current router's claimed commitment
	memDigest   = 72  // 8w: SysHash output buffer
	memPrevRoot = 120 // 8w: claimed previous CLog root

	gM        = 100 // total record count
	gPrev     = 101 // previous CLog entry count
	gNR       = 102 // number of routers
	gBaseRec  = 103
	gBasePerm = 104
	gBaseFlag = 105
	gBaseSort = 106
	gBaseNew  = 107
	gBasePrev = 108
	gBaseDig1 = 109
	gBaseDig2 = 110
	gNewCount = 111

	recBase = 4096
)

const (
	recW   = netflow.RecordWords
	entryW = clog.EntryWords
)

var (
	aggOnce    sync.Once
	aggProg    *zkvm.Program
	aggRegions []zkvm.Region
)

// AggregationProgram returns the (memoised) aggregation guest.
func AggregationProgram() *zkvm.Program {
	aggOnce.Do(func() {
		aggProg, aggRegions = buildAggregation()
	})
	return aggProg
}

// AggregationRegions returns the guest's labelled phase regions for
// cycle profiling (paper §6: "profiling with RISC Zero indicates the
// majority of this overhead stems from Merkle tree updates performed
// within the zkVM" — zkvm.Profile reproduces that analysis here).
func AggregationRegions() []zkvm.Region {
	AggregationProgram()
	return aggRegions
}

// emitSubroutines appends the shared leaf subroutines. Contract: args
// and scratch in r1-r7 (caller-saved), r8-r14 preserved, r15 link.
func emitSubroutines(a *zkvm.Assembler) {
	// The block helpers below are straight-line: one instruction per
	// word moved or compared, at an immediate offset from r4/r5, with
	// no loop counter; r2/r3 are their only scratch.

	// cmp8(r4=A, r5=B) -> r6 = 1 if the 8-word blocks are equal else 0.
	a.Label("cmp8")
	for k := uint32(0); k < 8; k++ {
		a.Lw(zkvm.R2, zkvm.R4, k)
		a.Lw(zkvm.R3, zkvm.R5, k)
		a.Bne(zkvm.R2, zkvm.R3, "cmp8.ne")
	}
	a.Li(zkvm.R6, 1)
	a.Ret()
	a.Label("cmp8.ne")
	a.Li(zkvm.R6, 0)
	a.Ret()

	// keycmp(r4=A, r5=B) -> r6 = 0 equal, 1 if A<B, 2 if A>B
	// (lexicographic over the 4 key words).
	a.Label("keycmp")
	for k := uint32(0); k < netflow.KeyWords; k++ {
		a.Lw(zkvm.R2, zkvm.R4, k)
		a.Lw(zkvm.R3, zkvm.R5, k)
		a.Bltu(zkvm.R2, zkvm.R3, "keycmp.lt")
		a.Bltu(zkvm.R3, zkvm.R2, "keycmp.gt")
	}
	a.Li(zkvm.R6, 0)
	a.Ret()
	a.Label("keycmp.lt")
	a.Li(zkvm.R6, 1)
	a.Ret()
	a.Label("keycmp.gt")
	a.Li(zkvm.R6, 2)
	a.Ret()

	// copy13(r4=src, r5=dst) copies one record/entry-sized block.
	a.Label("copy13")
	for k := uint32(0); k < recW; k++ {
		a.Lw(zkvm.R2, zkvm.R4, k)
		a.Sw(zkvm.R2, zkvm.R5, k)
	}
	a.Ret()

	// initentry(r4=record, r5=entry) copies the key and zeroes the
	// nine aggregate counters.
	a.Label("initentry")
	for k := uint32(0); k < netflow.KeyWords; k++ {
		a.Lw(zkvm.R2, zkvm.R4, k)
		a.Sw(zkvm.R2, zkvm.R5, k)
	}
	for k := uint32(netflow.KeyWords); k < entryW; k++ {
		a.Sw(zkvm.R0, zkvm.R5, k)
	}
	a.Ret()

	// mergerec(r4=record, r5=entry) folds one record into an entry
	// under the canonical policy (must mirror clog.Entry.Merge).
	a.Label("mergerec")
	// Additive counters: packets, bytes, dropped, hop_count.
	for off := uint32(4); off < 8; off++ {
		a.Lw(zkvm.R2, zkvm.R4, off)
		a.Lw(zkvm.R3, zkvm.R5, off)
		a.Add(zkvm.R3, zkvm.R3, zkvm.R2)
		a.Sw(zkvm.R3, zkvm.R5, off)
	}
	// RTT: entry[8] += rec[8]; entry[9] = max(entry[9], rec[8]).
	a.Lw(zkvm.R2, zkvm.R4, 8)
	a.Lw(zkvm.R3, zkvm.R5, 8)
	a.Add(zkvm.R3, zkvm.R3, zkvm.R2)
	a.Sw(zkvm.R3, zkvm.R5, 8)
	a.Lw(zkvm.R3, zkvm.R5, 9)
	a.Bgeu(zkvm.R3, zkvm.R2, "mergerec.jit")
	a.Sw(zkvm.R2, zkvm.R5, 9)
	a.Label("mergerec.jit")
	// Jitter: entry[10] += rec[9]; entry[11] = max(entry[11], rec[9]).
	a.Lw(zkvm.R2, zkvm.R4, 9)
	a.Lw(zkvm.R3, zkvm.R5, 10)
	a.Add(zkvm.R3, zkvm.R3, zkvm.R2)
	a.Sw(zkvm.R3, zkvm.R5, 10)
	a.Lw(zkvm.R3, zkvm.R5, 11)
	a.Bgeu(zkvm.R3, zkvm.R2, "mergerec.cnt")
	a.Sw(zkvm.R2, zkvm.R5, 11)
	a.Label("mergerec.cnt")
	a.Lw(zkvm.R3, zkvm.R5, 12)
	a.Addi(zkvm.R3, zkvm.R3, 1)
	a.Sw(zkvm.R3, zkvm.R5, 12)
	a.Ret()

	// leafhashes(r4=entries, r5=count, r6=digests): digest[i] =
	// SHA256(entry i), via the precompile.
	a.Label("leafhashes")
	a.Li(zkvm.R7, 0)
	a.Label("leafhashes.loop")
	a.Beq(zkvm.R7, zkvm.R5, "leafhashes.ret")
	a.Mov(zkvm.R1, zkvm.R4)
	a.Li(zkvm.R2, entryW)
	a.Mov(zkvm.R3, zkvm.R6)
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R4, zkvm.R4, entryW)
	a.Addi(zkvm.R6, zkvm.R6, 8)
	a.Addi(zkvm.R7, zkvm.R7, 1)
	a.J("leafhashes.loop")
	a.Label("leafhashes.ret")
	a.Ret()

	// reduce(r4=digests, r5=count): folds leaf digests in place to the
	// root at digests[0..8), padding with the zeros of fresh memory —
	// the vmtree convention.
	a.Label("reduce")
	a.Beq(zkvm.R5, zkvm.R0, "reduce.ret")
	a.Li(zkvm.R6, 1) // size
	a.Label("reduce.size")
	a.Bgeu(zkvm.R6, zkvm.R5, "reduce.levels")
	a.Slli(zkvm.R6, zkvm.R6, 1)
	a.J("reduce.size")
	a.Label("reduce.levels")
	a.Li(zkvm.R7, 1)
	a.Beq(zkvm.R6, zkvm.R7, "reduce.ret")
	a.Srli(zkvm.R5, zkvm.R6, 1) // half
	a.Li(zkvm.R7, 0)            // i
	a.Label("reduce.pair")
	a.Beq(zkvm.R7, zkvm.R5, "reduce.next")
	a.Slli(zkvm.R1, zkvm.R7, 4) // 16*i
	a.Add(zkvm.R1, zkvm.R1, zkvm.R4)
	a.Li(zkvm.R2, 16)
	a.Slli(zkvm.R3, zkvm.R7, 3) // 8*i
	a.Add(zkvm.R3, zkvm.R3, zkvm.R4)
	a.Ecall(zkvm.SysHash)
	a.Addi(zkvm.R7, zkvm.R7, 1)
	a.J("reduce.pair")
	a.Label("reduce.next")
	a.Mov(zkvm.R6, zkvm.R5)
	a.J("reduce.levels")
	a.Label("reduce.ret")
	a.Ret()
}

// emitReadBlock reads n input words into mem[base..base+n) with
// immediate offsets, then advances base by n.
func emitReadBlock(a *zkvm.Assembler, base int, n uint32) {
	for k := uint32(0); k < n; k++ {
		a.Ecall(zkvm.SysRead)
		a.Sw(zkvm.R1, base, k)
	}
	a.Addi(base, base, n)
}

// emitJournalBlock journals the n words at mem[base..base+n) with
// immediate offsets.
func emitJournalBlock(a *zkvm.Assembler, base int, n uint32) {
	for k := uint32(0); k < n; k++ {
		a.Lw(zkvm.R1, base, k)
		a.Ecall(zkvm.SysJournal)
	}
}

// buildAggregation assembles the Algorithm 1 guest.
func buildAggregation() (*zkvm.Program, []zkvm.Region) {
	a := zkvm.NewAssembler()

	// --- Phase A: header ---
	a.Comment("journal the chained previous-journal hash")
	for k := 0; k < 8; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
	}
	a.Comment("read + journal + stash the claimed previous root")
	for k := uint32(0); k < 8; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Sw(zkvm.R1, zkvm.R0, memPrevRoot+k)
	}
	a.Comment("journal the epoch this round aggregates")
	a.Ecall(zkvm.SysRead)
	a.Ecall(zkvm.SysJournal)
	for _, g := range []uint32{gNR, gM, gPrev} {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Sw(zkvm.R1, zkvm.R0, g)
	}
	a.Comment("compute region bases from the declared sizes")
	a.Lw(zkvm.R4, zkvm.R0, gM)
	a.Li(zkvm.R5, recW)
	a.Mul(zkvm.R5, zkvm.R4, zkvm.R5) // 13m
	a.Li(zkvm.R6, recBase)
	a.Sw(zkvm.R6, zkvm.R0, gBaseRec)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R5)
	a.Sw(zkvm.R6, zkvm.R0, gBasePerm)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R4)
	a.Sw(zkvm.R6, zkvm.R0, gBaseFlag)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R4)
	a.Sw(zkvm.R6, zkvm.R0, gBaseSort)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R5)
	a.Sw(zkvm.R6, zkvm.R0, gBaseNew)
	a.Lw(zkvm.R7, zkvm.R0, gPrev)
	a.Li(zkvm.R2, entryW)
	a.Mul(zkvm.R7, zkvm.R7, zkvm.R2) // 13p
	a.Add(zkvm.R6, zkvm.R6, zkvm.R5)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R7) // new region holds ≤ m+p entries
	a.Sw(zkvm.R6, zkvm.R0, gBasePrev)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R7)
	a.Sw(zkvm.R6, zkvm.R0, gBaseDig1)
	a.Lw(zkvm.R4, zkvm.R0, gPrev)
	a.Slli(zkvm.R4, zkvm.R4, 4) // 16p ≥ 8 * pow2(p)
	a.Add(zkvm.R6, zkvm.R6, zkvm.R4)
	a.Addi(zkvm.R6, zkvm.R6, 16)
	a.Sw(zkvm.R6, zkvm.R0, gBaseDig2)

	// --- Phase B: per-router ingest + commitment verification ---
	a.Comment("ingest per-router batches and verify hash commitments")
	a.Li(zkvm.R8, 0) // router index
	a.Lw(zkvm.R9, zkvm.R0, gBaseRec)
	a.Li(zkvm.R10, 0) // records ingested
	a.Label("router.loop")
	a.Lw(zkvm.R4, zkvm.R0, gNR)
	a.Beq(zkvm.R8, zkvm.R4, "router.done")
	a.Ecall(zkvm.SysRead) // router ID
	a.Ecall(zkvm.SysJournal)
	for k := uint32(0); k < 8; k++ {
		a.Ecall(zkvm.SysRead)
		a.Ecall(zkvm.SysJournal)
		a.Sw(zkvm.R1, zkvm.R0, memCommit+k)
	}
	a.Ecall(zkvm.SysRead) // record count
	a.Mov(zkvm.R11, zkvm.R1)
	a.Mov(zkvm.R12, zkvm.R9) // region start
	a.Li(zkvm.R13, recW)
	a.Mul(zkvm.R13, zkvm.R11, zkvm.R13)
	a.Add(zkvm.R13, zkvm.R13, zkvm.R9) // region end
	// One record per iteration.
	a.Label("router.words")
	a.Beq(zkvm.R9, zkvm.R13, "router.hash")
	emitReadBlock(a, zkvm.R9, recW)
	a.J("router.words")
	a.Label("router.hash")
	a.Add(zkvm.R10, zkvm.R10, zkvm.R11)
	a.Mov(zkvm.R1, zkvm.R12)
	a.Sub(zkvm.R2, zkvm.R13, zkvm.R12)
	a.Li(zkvm.R3, memDigest)
	a.Ecall(zkvm.SysHash)
	a.Li(zkvm.R4, memCommit)
	a.Li(zkvm.R5, memDigest)
	a.Call("cmp8")
	a.Beq(zkvm.R6, zkvm.R0, "abort.commit")
	a.Addi(zkvm.R8, zkvm.R8, 1)
	a.J("router.loop")
	a.Label("router.done")
	a.Lw(zkvm.R4, zkvm.R0, gM)
	a.Bne(zkvm.R10, zkvm.R4, "abort.count")

	// --- Phase C: read the sort-permutation hint ---
	a.Comment("read the host's sort permutation")
	a.Lw(zkvm.R9, zkvm.R0, gBasePerm)
	a.Lw(zkvm.R13, zkvm.R0, gBaseFlag) // = perm end
	a.Label("perm.read")
	a.Beq(zkvm.R9, zkvm.R13, "perm.done")
	a.Ecall(zkvm.SysRead)
	a.Sw(zkvm.R1, zkvm.R9, 0)
	a.Addi(zkvm.R9, zkvm.R9, 1)
	a.J("perm.read")
	a.Label("perm.done")

	// --- Phase D: apply + verify the permutation ---
	a.Comment("apply the permutation; verify bijectivity and sortedness")
	a.Lw(zkvm.R10, zkvm.R0, gBaseFlag)
	a.Lw(zkvm.R11, zkvm.R0, gBaseRec)
	a.Lw(zkvm.R12, zkvm.R0, gBaseSort) // dst = sort base + 13i
	a.Lw(zkvm.R13, zkvm.R0, gBasePerm) // &perm[i]
	a.Li(zkvm.R8, 0)                   // i
	a.Lw(zkvm.R14, zkvm.R0, gM)
	a.Label("sortcopy.loop")
	a.Beq(zkvm.R8, zkvm.R14, "sortcopy.done")
	a.Lw(zkvm.R9, zkvm.R13, 0) // p = perm[i]
	a.Bgeu(zkvm.R9, zkvm.R14, "abort.perm")
	a.Add(zkvm.R2, zkvm.R10, zkvm.R9)
	a.Lw(zkvm.R3, zkvm.R2, 0)
	a.Bne(zkvm.R3, zkvm.R0, "abort.perm") // index reused
	a.Li(zkvm.R3, 1)
	a.Sw(zkvm.R3, zkvm.R2, 0)
	// src = rec base + 13p.
	a.Li(zkvm.R4, recW)
	a.Mul(zkvm.R4, zkvm.R4, zkvm.R9)
	a.Add(zkvm.R4, zkvm.R4, zkvm.R11)
	a.Mov(zkvm.R5, zkvm.R12)
	a.Call("copy13")
	// Sortedness: key(sort[i-1]) must not exceed key(sort[i]).
	a.Beq(zkvm.R8, zkvm.R0, "sortcopy.next")
	a.Addi(zkvm.R4, zkvm.R12, ^uint32(recW-1)) // sort[i-1]
	a.Mov(zkvm.R5, zkvm.R12)
	a.Call("keycmp")
	a.Li(zkvm.R2, 2)
	a.Beq(zkvm.R6, zkvm.R2, "abort.perm")
	a.Label("sortcopy.next")
	a.Addi(zkvm.R8, zkvm.R8, 1)
	a.Addi(zkvm.R12, zkvm.R12, recW)
	a.Addi(zkvm.R13, zkvm.R13, 1)
	a.J("sortcopy.loop")
	a.Label("sortcopy.done")

	// --- Phase E: read + verify the previous CLog ---
	a.Comment("read the previous CLog; verify strict key order")
	a.Lw(zkvm.R9, zkvm.R0, gBasePrev)
	a.Lw(zkvm.R13, zkvm.R0, gBaseDig1) // = prev end
	// One entry per iteration.
	a.Label("prev.read")
	a.Beq(zkvm.R9, zkvm.R13, "prev.sorted")
	emitReadBlock(a, zkvm.R9, entryW)
	a.J("prev.read")
	a.Label("prev.sorted")
	a.Lw(zkvm.R9, zkvm.R0, gBasePrev)
	a.Addi(zkvm.R9, zkvm.R9, entryW) // &prev[1]; r13 = prev end
	a.Label("prev.order")
	a.Bgeu(zkvm.R9, zkvm.R13, "prev.root")
	a.Addi(zkvm.R4, zkvm.R9, ^uint32(entryW-1)) // prev[i-1]
	a.Mov(zkvm.R5, zkvm.R9)
	a.Call("keycmp")
	a.Li(zkvm.R2, 1)
	a.Bne(zkvm.R6, zkvm.R2, "abort.prevsort")
	a.Addi(zkvm.R9, zkvm.R9, entryW)
	a.J("prev.order")

	// --- Phase F: authenticate the previous root (in-VM rebuild) ---
	a.Label("prev.root")
	a.Comment("rebuild the previous Merkle tree in-VM")
	a.Lw(zkvm.R4, zkvm.R0, gBasePrev)
	a.Lw(zkvm.R5, zkvm.R0, gPrev)
	a.Lw(zkvm.R6, zkvm.R0, gBaseDig1)
	a.Call("leafhashes")
	a.Lw(zkvm.R4, zkvm.R0, gBaseDig1)
	a.Lw(zkvm.R5, zkvm.R0, gPrev)
	a.Call("reduce")
	a.Li(zkvm.R4, memPrevRoot)
	a.Lw(zkvm.R5, zkvm.R0, gBaseDig1)
	a.Call("cmp8")
	a.Beq(zkvm.R6, zkvm.R0, "abort.prevroot")

	// --- Phase G: merge-join (Algorithm 1 lines 13-23) ---
	a.Comment("merge-join sorted records with the previous CLog")
	// Cursors run to end pointers, so no loop reloads a global.
	a.Li(zkvm.R12, 0)                  // n: new entry count
	a.Lw(zkvm.R9, zkvm.R0, gBaseSort)  // next sorted record
	a.Lw(zkvm.R11, zkvm.R0, gBasePrev) // next prev entry
	a.Lw(zkvm.R13, zkvm.R0, gBaseNew)  // next new entry
	a.Mov(zkvm.R14, zkvm.R13)          // sorted records end where new entries start
	a.Lw(zkvm.R10, zkvm.R0, gBaseDig1) // prev entries end where digests start
	a.Label("merge.loop")
	a.Bne(zkvm.R9, zkvm.R14, "merge.haverec")
	a.Beq(zkvm.R11, zkvm.R10, "merge.done")
	a.J("merge.takeprev")
	a.Label("merge.haverec")
	a.Beq(zkvm.R11, zkvm.R10, "merge.takerec")
	a.Mov(zkvm.R4, zkvm.R9)
	a.Mov(zkvm.R5, zkvm.R11)
	a.Call("keycmp")
	a.Li(zkvm.R2, 1)
	a.Beq(zkvm.R6, zkvm.R2, "merge.takerec")
	a.Li(zkvm.R2, 2)
	a.Beq(zkvm.R6, zkvm.R2, "merge.takeprev")
	// Equal keys: copy the prev entry, then absorb matching records.
	a.Mov(zkvm.R4, zkvm.R11)
	a.Mov(zkvm.R5, zkvm.R13)
	a.Call("copy13")
	a.Addi(zkvm.R11, zkvm.R11, entryW)
	a.J("merge.absorb")
	a.Label("merge.takeprev")
	a.Mov(zkvm.R4, zkvm.R11)
	a.Mov(zkvm.R5, zkvm.R13)
	a.Call("copy13")
	a.Addi(zkvm.R11, zkvm.R11, entryW)
	a.J("merge.emit")
	a.Label("merge.takerec")
	a.Mov(zkvm.R4, zkvm.R9)
	a.Mov(zkvm.R5, zkvm.R13)
	a.Call("initentry")
	a.Label("merge.absorb")
	a.Beq(zkvm.R9, zkvm.R14, "merge.emit")
	a.Mov(zkvm.R4, zkvm.R9)
	a.Mov(zkvm.R5, zkvm.R13)
	a.Call("keycmp")
	a.Bne(zkvm.R6, zkvm.R0, "merge.emit")
	a.Mov(zkvm.R4, zkvm.R9)
	a.Mov(zkvm.R5, zkvm.R13)
	a.Call("mergerec")
	a.Addi(zkvm.R9, zkvm.R9, recW)
	a.J("merge.absorb")
	a.Label("merge.emit")
	a.Addi(zkvm.R12, zkvm.R12, 1)
	a.Addi(zkvm.R13, zkvm.R13, entryW)
	a.J("merge.loop")
	a.Label("merge.done")
	a.Sw(zkvm.R12, zkvm.R0, gNewCount)

	// --- Phase H: new tree + journal ---
	a.Comment("hash new leaves; journal count, digests, then the root")
	a.Lw(zkvm.R1, zkvm.R0, gNewCount)
	a.Ecall(zkvm.SysJournal)
	a.Lw(zkvm.R4, zkvm.R0, gBaseNew)
	a.Lw(zkvm.R5, zkvm.R0, gNewCount)
	a.Lw(zkvm.R6, zkvm.R0, gBaseDig2)
	a.Call("leafhashes")
	a.Lw(zkvm.R9, zkvm.R0, gBaseDig2)
	a.Lw(zkvm.R14, zkvm.R0, gNewCount)
	a.Slli(zkvm.R14, zkvm.R14, 3)
	a.Add(zkvm.R14, zkvm.R14, zkvm.R9) // end of the n*8 digest words
	// One digest per iteration.
	a.Label("jdig.loop")
	a.Beq(zkvm.R9, zkvm.R14, "jdig.done")
	emitJournalBlock(a, zkvm.R9, 8)
	a.Addi(zkvm.R9, zkvm.R9, 8)
	a.J("jdig.loop")
	a.Label("jdig.done")
	a.Lw(zkvm.R4, zkvm.R0, gBaseDig2)
	a.Lw(zkvm.R5, zkvm.R0, gNewCount)
	a.Call("reduce")
	a.Label("jroot")
	a.Lw(zkvm.R9, zkvm.R0, gBaseDig2)
	emitJournalBlock(a, zkvm.R9, 8)
	a.HaltCode(0)

	// --- Aborts ---
	a.Label("abort.commit")
	a.HaltCode(AbortCommitMismatch)
	a.Label("abort.count")
	a.HaltCode(AbortCountMismatch)
	a.Label("abort.perm")
	a.HaltCode(AbortBadPermutation)
	a.Label("abort.prevsort")
	a.HaltCode(AbortPrevUnsorted)
	a.Label("abort.prevroot")
	a.HaltCode(AbortPrevRootMismatch)

	emitSubroutines(a)
	return a.MustAssemble(), a.Regions()
}

// RouterBatch is one router's epoch contribution.
type RouterBatch struct {
	ID         uint32
	Commitment vmtree.Digest // published SHA-256 over the wire batch
	Records    []netflow.Record
}

// AggInput is the aggregation guest's private input tape.
type AggInput struct {
	PrevJournalHash vmtree.Digest
	PrevRoot        vmtree.Digest
	Epoch           uint32
	Routers         []RouterBatch
	PrevEntries     []clog.Entry // must be strictly key-sorted
}

// Words serialises the input tape, computing the sort-permutation
// hint over the concatenated records.
func (in *AggInput) Words() []uint32 {
	var recs []netflow.Record
	for _, r := range in.Routers {
		recs = append(recs, r.Records...)
	}
	m := len(recs)
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return recs[perm[a]].Key.Less(recs[perm[b]].Key)
	})

	out := make([]uint32, 0, 32+m*(recW+1)+len(in.PrevEntries)*entryW)
	out = append(out, in.PrevJournalHash[:]...)
	out = append(out, in.PrevRoot[:]...)
	out = append(out, in.Epoch)
	out = append(out, uint32(len(in.Routers)), uint32(m), uint32(len(in.PrevEntries)))
	for _, r := range in.Routers {
		out = append(out, r.ID)
		out = append(out, r.Commitment[:]...)
		out = append(out, uint32(len(r.Records)))
		out = append(out, netflow.BatchWords(r.Records)...)
	}
	for _, p := range perm {
		out = append(out, uint32(p))
	}
	out = append(out, clog.EntriesWords(in.PrevEntries)...)
	return out
}

// AggJournal is the decoded public output of the aggregation guest.
type AggJournal struct {
	PrevJournalHash vmtree.Digest
	PrevRoot        vmtree.Digest
	Epoch           uint32
	NumRouters      uint32
	NumRecords      uint32
	PrevCount       uint32
	RouterIDs       []uint32
	Commitments     []vmtree.Digest
	NewCount        uint32
	LeafDigests     []vmtree.Digest
	NewRoot         vmtree.Digest
}

// ErrBadJournal reports a journal that does not parse as an
// aggregation journal.
var ErrBadJournal = errors.New("guest: malformed journal")

// ParseAggJournal decodes the aggregation guest's journal words.
func ParseAggJournal(words []uint32) (*AggJournal, error) {
	rd := wordReader{words: words}
	var j AggJournal
	rd.digest(&j.PrevJournalHash)
	rd.digest(&j.PrevRoot)
	j.Epoch = rd.word()
	j.NumRouters = rd.word()
	j.NumRecords = rd.word()
	j.PrevCount = rd.word()
	if rd.err == nil && j.NumRouters > uint32(len(words)) {
		return nil, fmt.Errorf("%w: %d routers implausible", ErrBadJournal, j.NumRouters)
	}
	for r := uint32(0); r < j.NumRouters && rd.err == nil; r++ {
		j.RouterIDs = append(j.RouterIDs, rd.word())
		var d vmtree.Digest
		rd.digest(&d)
		j.Commitments = append(j.Commitments, d)
	}
	j.NewCount = rd.word()
	if rd.err == nil && j.NewCount > uint32(len(words)) {
		return nil, fmt.Errorf("%w: %d entries implausible", ErrBadJournal, j.NewCount)
	}
	for n := uint32(0); n < j.NewCount && rd.err == nil; n++ {
		var d vmtree.Digest
		rd.digest(&d)
		j.LeafDigests = append(j.LeafDigests, d)
	}
	rd.digest(&j.NewRoot)
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(words) {
		return nil, fmt.Errorf("%w: %d trailing words", ErrBadJournal, len(words)-rd.off)
	}
	return &j, nil
}

// wordReader is a cursor over journal words.
type wordReader struct {
	words []uint32
	off   int
	err   error
}

func (r *wordReader) word() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.words) {
		r.err = fmt.Errorf("%w: truncated at word %d", ErrBadJournal, r.off)
		return 0
	}
	v := r.words[r.off]
	r.off++
	return v
}

func (r *wordReader) digest(d *vmtree.Digest) {
	for i := range d {
		d[i] = r.word()
	}
}

// ReferenceAggregate is the host-side model of the guest's merge: it
// returns the new CLog entries the guest will produce for the given
// previous entries and record batches. Used for differential testing
// and by the prover to prepare the next round.
func ReferenceAggregate(prev []clog.Entry, batches ...[]netflow.Record) []clog.Entry {
	c := clog.New()
	for i := range prev {
		e := prev[i]
		c.SetEntry(e)
	}
	for _, b := range batches {
		for i := range b {
			c.Merge(&b[i])
		}
	}
	out := make([]clog.Entry, len(c.Entries()))
	copy(out, c.Entries())
	return out
}

// EntryWordsOf flattens entries for vmtree hashing.
func EntryWordsOf(entries []clog.Entry) [][]uint32 {
	out := make([][]uint32, len(entries))
	for i := range entries {
		w := entries[i].Words()
		out[i] = w[:]
	}
	return out
}
