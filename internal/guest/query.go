package guest

import (
	"fmt"

	"zkflow/internal/clog"
	"zkflow/internal/query"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// Query guest memory map: the evaluation stack for predicate codegen
// lives in low scratch memory; entries are read to recBase and leaf
// digests land just past them.
const (
	qStackBase = 200 // predicate evaluation stack (words)
	qCount     = 100 // global: entry count
	qBaseDig   = 101 // global: digest region base
)

// QueryProgram compiles a parsed query into a dedicated guest
// program. The query's constants are embedded in the instruction
// stream, so the program's image ID cryptographically identifies the
// query: a verifier recompiles the query and compares image IDs.
//
// The guest reads the CLog snapshot, rebuilds its Merkle root in-VM
// (binding the result to the aggregation chain), evaluates the
// predicate over every entry, and journals the entry count, the root,
// the matched count, and the 64-bit aggregate.
func QueryProgram(q *query.Query) *zkvm.Program {
	a := zkvm.NewAssembler()
	labels := 0
	fresh := func(prefix string) string {
		labels++
		return fmt.Sprintf("%s.%d", prefix, labels)
	}

	a.Comment("read + journal the CLog entry count")
	a.Ecall(zkvm.SysRead)
	a.Ecall(zkvm.SysJournal)
	a.Sw(zkvm.R1, zkvm.R0, qCount)
	a.Li(zkvm.R2, entryW)
	a.Mul(zkvm.R2, zkvm.R2, zkvm.R1)
	a.Li(zkvm.R3, recBase)
	a.Add(zkvm.R2, zkvm.R2, zkvm.R3)
	a.Sw(zkvm.R2, zkvm.R0, qBaseDig)

	a.Comment("read the CLog snapshot")
	a.Li(zkvm.R9, recBase)
	a.Lw(zkvm.R13, zkvm.R0, qBaseDig)
	// One entry per iteration.
	a.Label("read.loop")
	a.Beq(zkvm.R9, zkvm.R13, "read.done")
	emitReadBlock(a, zkvm.R9, entryW)
	a.J("read.loop")
	a.Label("read.done")

	a.Comment("rebuild the Merkle root in-VM and journal it")
	a.Li(zkvm.R4, recBase)
	a.Lw(zkvm.R5, zkvm.R0, qCount)
	a.Lw(zkvm.R6, zkvm.R0, qBaseDig)
	a.Call("leafhashes")
	a.Lw(zkvm.R4, zkvm.R0, qBaseDig)
	a.Lw(zkvm.R5, zkvm.R0, qCount)
	a.Call("reduce")
	a.Label("jroot")
	a.Lw(zkvm.R9, zkvm.R0, qBaseDig)
	emitJournalBlock(a, zkvm.R9, 8)

	a.Comment("filter + aggregate")
	a.Li(zkvm.R8, recBase)            // entry cursor
	a.Lw(zkvm.R14, zkvm.R0, qBaseDig) // end
	a.Li(zkvm.R9, qStackBase)         // eval stack pointer
	a.Li(zkvm.R11, 0)                 // matched
	if q.Agg == query.AggMin {
		a.Li(zkvm.R12, 0xffffffff)
	} else {
		a.Li(zkvm.R12, 0) // accumulator low
	}
	a.Li(zkvm.R13, 0) // accumulator high
	a.Label("agg.loop")
	a.Beq(zkvm.R8, zkvm.R14, "agg.done")
	emitPredicate(a, q.Where)
	a.Addi(zkvm.R9, zkvm.R9, ^uint32(0)) // pop
	a.Lw(zkvm.R4, zkvm.R9, 0)
	a.Beq(zkvm.R4, zkvm.R0, "agg.skip")
	a.Addi(zkvm.R11, zkvm.R11, 1)
	switch q.Agg {
	case query.AggCount:
		// matched counter is the result
	case query.AggSum, query.AggAvg:
		emitFieldLoad(a, q.Field)
		a.Add(zkvm.R3, zkvm.R12, zkvm.R2)
		a.Sltu(zkvm.R4, zkvm.R3, zkvm.R2) // carry out
		a.Add(zkvm.R13, zkvm.R13, zkvm.R4)
		a.Mov(zkvm.R12, zkvm.R3)
	case query.AggMin:
		emitFieldLoad(a, q.Field)
		skip := fresh("min.skip")
		a.Bgeu(zkvm.R2, zkvm.R12, skip)
		a.Mov(zkvm.R12, zkvm.R2)
		a.Label(skip)
	case query.AggMax:
		emitFieldLoad(a, q.Field)
		skip := fresh("max.skip")
		a.Bgeu(zkvm.R12, zkvm.R2, skip)
		a.Mov(zkvm.R12, zkvm.R2)
		a.Label(skip)
	}
	a.Label("agg.skip")
	a.Addi(zkvm.R8, zkvm.R8, entryW)
	a.J("agg.loop")
	a.Label("agg.done")
	if q.Agg == query.AggCount {
		// COUNT's result is the matched counter itself; mirror it into
		// the accumulator so Result() is uniform across aggregates.
		a.Mov(zkvm.R12, zkvm.R11)
	}

	a.Comment("journal matched count and the 64-bit aggregate")
	a.Mov(zkvm.R1, zkvm.R11)
	a.Ecall(zkvm.SysJournal)
	a.Mov(zkvm.R1, zkvm.R12)
	a.Ecall(zkvm.SysJournal)
	a.Mov(zkvm.R1, zkvm.R13)
	a.Ecall(zkvm.SysJournal)
	a.HaltCode(0)

	emitSubroutines(a)
	return a.MustAssemble()
}

// emitFieldLoad loads the aggregate field of the entry at r8 into r2.
func emitFieldLoad(a *zkvm.Assembler, f query.Field) {
	a.Lw(zkvm.R2, zkvm.R8, uint32(f.Word))
	if f.Shift != 0 {
		a.Srli(zkvm.R2, zkvm.R2, f.Shift)
	}
	if f.Mask != 0 {
		a.Andi(zkvm.R2, zkvm.R2, f.Mask)
	}
}

// emitPredicate compiles the predicate to stack-machine code: the
// entry address is in r8, the evaluation stack pointer in r9, and the
// boolean result (0/1) is left on the stack. Scratch: r2-r4.
func emitPredicate(a *zkvm.Assembler, e query.Expr) {
	push := func() { // push r2
		a.Sw(zkvm.R2, zkvm.R9, 0)
		a.Addi(zkvm.R9, zkvm.R9, 1)
	}
	pop := func(reg int) {
		a.Addi(zkvm.R9, zkvm.R9, ^uint32(0))
		a.Lw(reg, zkvm.R9, 0)
	}
	switch v := e.(type) {
	case nil:
		a.Li(zkvm.R2, 1)
		push()
	case *query.Cmp:
		emitFieldLoad(a, v.Field)
		a.Li(zkvm.R3, v.Value)
		switch v.Op {
		case query.OpEq:
			a.Xor(zkvm.R2, zkvm.R2, zkvm.R3)
			a.Sltiu(zkvm.R2, zkvm.R2, 1)
		case query.OpNe:
			a.Xor(zkvm.R2, zkvm.R2, zkvm.R3)
			a.Sltu(zkvm.R2, zkvm.R0, zkvm.R2)
		case query.OpLt:
			a.Sltu(zkvm.R2, zkvm.R2, zkvm.R3)
		case query.OpGe:
			a.Sltu(zkvm.R2, zkvm.R2, zkvm.R3)
			a.Xori(zkvm.R2, zkvm.R2, 1)
		case query.OpGt:
			a.Sltu(zkvm.R2, zkvm.R3, zkvm.R2)
		case query.OpLe:
			a.Sltu(zkvm.R2, zkvm.R3, zkvm.R2)
			a.Xori(zkvm.R2, zkvm.R2, 1)
		}
		push()
	case *query.And:
		emitPredicate(a, v.L)
		emitPredicate(a, v.R)
		pop(zkvm.R3)
		pop(zkvm.R2)
		a.And(zkvm.R2, zkvm.R2, zkvm.R3)
		push()
	case *query.Or:
		emitPredicate(a, v.L)
		emitPredicate(a, v.R)
		pop(zkvm.R3)
		pop(zkvm.R2)
		a.Or(zkvm.R2, zkvm.R2, zkvm.R3)
		push()
	case *query.Not:
		emitPredicate(a, v.E)
		pop(zkvm.R2)
		a.Xori(zkvm.R2, zkvm.R2, 1)
		push()
	default:
		panic(fmt.Sprintf("guest: unknown expression %T", e))
	}
}

// QueryInput builds the query guest's input tape from a CLog
// snapshot (which must be the canonical sorted entries).
func QueryInput(entries []clog.Entry) []uint32 {
	out := make([]uint32, 0, 1+len(entries)*entryW)
	out = append(out, uint32(len(entries)))
	out = append(out, clog.EntriesWords(entries)...)
	return out
}

// QueryJournal is the decoded public output of a query guest.
type QueryJournal struct {
	NumEntries uint32
	Root       vmtree.Digest
	Matched    uint32
	Lo, Hi     uint32
}

// Result returns the 64-bit aggregate value.
func (j *QueryJournal) Result() uint64 { return uint64(j.Hi)<<32 | uint64(j.Lo) }

// Avg returns the average for AVG queries (0 if nothing matched).
func (j *QueryJournal) Avg() float64 {
	if j.Matched == 0 {
		return 0
	}
	return float64(j.Result()) / float64(j.Matched)
}

// ParseQueryJournal decodes a query guest journal.
func ParseQueryJournal(words []uint32) (*QueryJournal, error) {
	if len(words) != 12 {
		return nil, fmt.Errorf("%w: query journal has %d words, want 12", ErrBadJournal, len(words))
	}
	var j QueryJournal
	rd := wordReader{words: words}
	j.NumEntries = rd.word()
	rd.digest(&j.Root)
	j.Matched = rd.word()
	j.Lo = rd.word()
	j.Hi = rd.word()
	return &j, rd.err
}
