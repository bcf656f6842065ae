package zkvm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Row is one execution-trace row: the machine state *before* the step
// at that row executes. Rows are what the prover commits to and what
// sampled transition checks re-execute.
type Row struct {
	PC     uint32
	Regs   [NumRegs]uint32
	MemPtr uint32 // memory-log length before this step
	InPtr  uint32 // input words consumed before this step
	JPtr   uint32 // journal words written before this step
}

// MemEntry is one entry of the memory-access log.
type MemEntry struct {
	Addr    uint32
	Val     uint32
	Seq     uint32 // position in the program-order log
	Step    uint32 // trace row that issued the access
	IsWrite bool
}

// Execution is a completed guest run: the full trace, the memory log
// in program order, and the public journal.
type Execution struct {
	Program  *Program
	Rows     []Row
	MemLog   []MemEntry
	Journal  []uint32
	ExitCode uint32
}

// TrapError reports an execution fault. A trapped guest cannot be
// proven: this is the "failed proof generation" signal the paper's
// tamper experiment relies on.
type TrapError struct {
	PC     uint32
	Step   int
	Reason string
}

// Error implements the error interface.
func (e *TrapError) Error() string {
	return fmt.Sprintf("zkvm: trap at pc=%d step=%d: %s", e.PC, e.Step, e.Reason)
}

// ErrStepLimit reports that the guest exceeded the configured cycle
// budget.
var ErrStepLimit = errors.New("zkvm: step limit exceeded")

// maxHashWords bounds a single SysHash request.
const maxHashWords = 1 << 24

// Slab pools for the execution-trace tables. A 1000-record
// aggregation trace is ~400k rows (~32 MB); allocating it fresh per
// proof costs the runtime a full zeroing pass plus append-growth
// copies. Prove recycles the slabs of executions it created itself
// (releaseExecution); externally-supplied executions are never pooled.
var (
	rowSlabPool sync.Pool // *[]Row
	memSlabPool sync.Pool // *[]MemEntry
)

func getRowSlab() []Row {
	if v := rowSlabPool.Get(); v != nil {
		return (*v.(*[]Row))[:0]
	}
	return nil
}

func putRowSlab(s []Row) {
	if cap(s) > 0 {
		s = s[:0]
		rowSlabPool.Put(&s)
	}
}

func getMemSlab() []MemEntry {
	if v := memSlabPool.Get(); v != nil {
		return (*v.(*[]MemEntry))[:0]
	}
	return nil
}

// getRowSlabSized and getMemSlabSized return a slab with at least the
// hinted capacity. A pooled slab that is too small (first run after a
// pool eviction, or a bigger workload than anything seen yet) is
// dropped on the floor so the pool converges to the steady-state size
// instead of cycling undersized slabs back in.
func getRowSlabSized(hint int) []Row {
	s := getRowSlab()
	if hint > 0 && cap(s) < hint {
		return make([]Row, 0, hint)
	}
	return s
}

func getMemSlabSized(hint int) []MemEntry {
	s := getMemSlab()
	if hint > 0 && cap(s) < hint {
		return make([]MemEntry, 0, hint)
	}
	return s
}

// traceSizeHint reports the largest (rows, memLog) trace this program
// has produced, or zeros before the first completed run.
func (p *Program) traceSizeHint() (rows, mem int) {
	h := p.traceHint.Load()
	return int(h >> 32), int(h & 0xffffffff)
}

// noteTraceSize folds a completed run's trace dimensions into the
// program's running max.
func (p *Program) noteTraceSize(rows, mem int) {
	nr, nm := uint64(rows), uint64(mem)
	if nr > 0xffffffff {
		nr = 0xffffffff
	}
	if nm > 0xffffffff {
		nm = 0xffffffff
	}
	for {
		old := p.traceHint.Load()
		or, om := old>>32, old&0xffffffff
		if nr <= or && nm <= om {
			return
		}
		r, m := max(nr, or), max(nm, om)
		if p.traceHint.CompareAndSwap(old, r<<32|m) {
			return
		}
	}
}

func putMemSlab(s []MemEntry) {
	if cap(s) > 0 {
		s = s[:0]
		memSlabPool.Put(&s)
	}
}

// releaseExecution returns the trace slabs of an internally-created
// execution to the pools. Only call it when the execution (and
// everything aliasing its slices) is dead; the receipt never aliases
// them — openings re-encode rows into fresh buffers and the journal
// is copied.
func releaseExecution(ex *Execution) {
	putRowSlab(ex.Rows)
	putMemSlab(ex.MemLog)
	ex.Rows, ex.MemLog = nil, nil
}

// appendDoubling is append with capacity-doubling growth. The runtime
// grows large slices by only ~1.25x, so an N-row trace built with bare
// append memmoves ~4N bytes through growslice; doubling bounds the
// total copy traffic at N. Trace and memory logs reach tens of MB, so
// this is a measurable slice of serial proving time (E14).
func appendDoubling[T any](s []T, v T) []T {
	s = growDoubling(s)
	return append(s, v)
}

// growDoubling makes room for one more element, doubling the capacity
// when the slice is full.
func growDoubling[T any](s []T) []T {
	if len(s) == cap(s) {
		newCap := 2 * cap(s)
		if newCap < 1024 {
			newCap = 1024
		}
		grown := make([]T, len(s), newCap)
		copy(grown, s)
		s = grown
	}
	return s
}

// pushRow extends the trace by one row and returns it for the caller
// to fill in place; the slot may hold a stale pooled row, so every
// field must be written.
func pushRow(rows *[]Row) *Row {
	s := growDoubling(*rows)
	s = s[:len(s)+1]
	*rows = s
	return &s[len(s)-1]
}

// execEnv supplies the step function with its value sources. The
// emulator backs it with real memory and the input tape; the verifier
// backs it with the opened memory-log entries and journal.
type execEnv interface {
	load(addr uint32) (uint32, error)
	store(addr, val uint32) error
	readInput() (uint32, error)
	inputLen() (uint32, error)
	writeJournal(val uint32) error
}

// ioCounts tallies the side effects of one step, used to check the
// MemPtr/InPtr/JPtr continuity between adjacent rows.
type ioCounts struct {
	mem, in, journal uint32
}

// step executes the instruction at row.PC against env, writes the
// successor register file to *next and returns the successor pc. It is
// the single source of truth for TinyRISC semantics: the emulator and
// the seal verifier both call it. next must not alias row.Regs; on a
// halt or an error its contents are unspecified.
func step(prog *Program, row *Row, next *[NumRegs]uint32, env execEnv) (nextPC uint32, counts ioCounts, halted bool, err error) {
	if row.PC >= uint32(len(prog.Instrs)) {
		return 0, counts, false, fmt.Errorf("pc %d outside program of %d instructions", row.PC, len(prog.Instrs))
	}
	in := prog.Instrs[row.PC]
	*next = row.Regs
	nextPC = row.PC + 1

	setRd := func(v uint32) {
		if in.Rd != 0 {
			next[in.Rd] = v
		}
	}
	rs1, rs2 := row.Regs[in.Rs1], row.Regs[in.Rs2]

	switch in.Op {
	case OpAdd:
		setRd(rs1 + rs2)
	case OpSub:
		setRd(rs1 - rs2)
	case OpMul:
		setRd(rs1 * rs2)
	case OpDivu:
		if rs2 == 0 {
			setRd(0xffffffff)
		} else {
			setRd(rs1 / rs2)
		}
	case OpRemu:
		if rs2 == 0 {
			setRd(rs1)
		} else {
			setRd(rs1 % rs2)
		}
	case OpAnd:
		setRd(rs1 & rs2)
	case OpOr:
		setRd(rs1 | rs2)
	case OpXor:
		setRd(rs1 ^ rs2)
	case OpSll:
		setRd(rs1 << (rs2 & 31))
	case OpSrl:
		setRd(rs1 >> (rs2 & 31))
	case OpSltu:
		if rs1 < rs2 {
			setRd(1)
		} else {
			setRd(0)
		}
	case OpAddi:
		setRd(rs1 + in.Imm)
	case OpAndi:
		setRd(rs1 & in.Imm)
	case OpOri:
		setRd(rs1 | in.Imm)
	case OpXori:
		setRd(rs1 ^ in.Imm)
	case OpSlli:
		setRd(rs1 << (in.Imm & 31))
	case OpSrli:
		setRd(rs1 >> (in.Imm & 31))
	case OpSltiu:
		if rs1 < in.Imm {
			setRd(1)
		} else {
			setRd(0)
		}
	case OpLi:
		setRd(in.Imm)
	case OpLw:
		v, lerr := env.load(rs1 + in.Imm)
		if lerr != nil {
			return 0, counts, false, lerr
		}
		counts.mem++
		setRd(v)
	case OpSw:
		if serr := env.store(rs1+in.Imm, rs2); serr != nil {
			return 0, counts, false, serr
		}
		counts.mem++
	case OpBeq:
		if rs1 == rs2 {
			nextPC = in.Imm
		}
	case OpBne:
		if rs1 != rs2 {
			nextPC = in.Imm
		}
	case OpBltu:
		if rs1 < rs2 {
			nextPC = in.Imm
		}
	case OpBgeu:
		if rs1 >= rs2 {
			nextPC = in.Imm
		}
	case OpJal:
		setRd(row.PC + 1)
		nextPC = in.Imm
	case OpJalr:
		setRd(row.PC + 1)
		nextPC = rs1 + in.Imm
	case OpEcall:
		switch in.Imm {
		case SysRead:
			v, rerr := env.readInput()
			if rerr != nil {
				return 0, counts, false, rerr
			}
			counts.in++
			next[R1] = v
		case SysJournal:
			if jerr := env.writeJournal(row.Regs[R1]); jerr != nil {
				return 0, counts, false, jerr
			}
			counts.journal++
		case SysHash:
			addr, n, dst := row.Regs[R1], row.Regs[R2], row.Regs[R3]
			if n > maxHashWords {
				return 0, counts, false, fmt.Errorf("sys_hash length %d exceeds limit", n)
			}
			buf := make([]byte, 4*n)
			for i := uint32(0); i < n; i++ {
				v, lerr := env.load(addr + i)
				if lerr != nil {
					return 0, counts, false, lerr
				}
				counts.mem++
				binary.LittleEndian.PutUint32(buf[4*i:], v)
			}
			digest := sha256.Sum256(buf)
			for j := uint32(0); j < 8; j++ {
				w := binary.LittleEndian.Uint32(digest[4*j:])
				if serr := env.store(dst+j, w); serr != nil {
					return 0, counts, false, serr
				}
				counts.mem++
			}
		case SysInputLen:
			v, rerr := env.inputLen()
			if rerr != nil {
				return 0, counts, false, rerr
			}
			next[R1] = v
		default:
			return 0, counts, false, fmt.Errorf("unknown ecall %d", in.Imm)
		}
	case OpHalt:
		return row.PC, counts, true, nil
	default:
		return 0, counts, false, fmt.Errorf("invalid opcode %v", in.Op)
	}
	next[0] = 0 // r0 is hardwired
	return nextPC, counts, false, nil
}

// emuEnv is the concrete environment used during real execution.
type emuEnv struct {
	mem     memory
	memLog  []MemEntry
	step    uint32
	input   []uint32
	inPtr   int
	journal []uint32
}

func (e *emuEnv) load(addr uint32) (uint32, error) {
	v := e.mem.get(addr)
	e.memLog = appendDoubling(e.memLog, MemEntry{Addr: addr, Val: v, Seq: uint32(len(e.memLog)), Step: e.step})
	return v, nil
}

func (e *emuEnv) store(addr, val uint32) error {
	e.mem.set(addr, val)
	e.memLog = appendDoubling(e.memLog, MemEntry{Addr: addr, Val: val, Seq: uint32(len(e.memLog)), Step: e.step, IsWrite: true})
	return nil
}

// errInputExhausted is shared by the traced and count-only emulator
// environments so a starved guest traps with the same message on both.
var errInputExhausted = errors.New("input tape exhausted")

func (e *emuEnv) readInput() (uint32, error) {
	if e.inPtr >= len(e.input) {
		return 0, errInputExhausted
	}
	v := e.input[e.inPtr]
	e.inPtr++
	return v, nil
}

func (e *emuEnv) inputLen() (uint32, error) {
	return uint32(len(e.input) - e.inPtr), nil
}

func (e *emuEnv) writeJournal(val uint32) error {
	e.journal = append(e.journal, val)
	return nil
}

// ExecOptions configures guest execution.
type ExecOptions struct {
	// MaxSteps bounds the cycle count (0 means the default of 1<<26).
	MaxSteps int
}

// DefaultMaxSteps is the default cycle budget.
const DefaultMaxSteps = 1 << 26

// Execute runs the guest program over the private input tape and
// returns the full traced execution. A trap (bad pc, exhausted input,
// unknown ecall, cycle budget) returns a *TrapError or ErrStepLimit;
// no proof can be generated for a trapped run.
func Execute(prog *Program, input []uint32, opts ExecOptions) (*Execution, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	hintRows, hintMem := prog.traceSizeHint()
	env := &emuEnv{input: input, memLog: getMemSlabSized(hintMem)}
	var (
		pc   uint32
		regs [NumRegs]uint32
	)
	rows := getRowSlabSized(hintRows)
	for stepNo := 0; ; stepNo++ {
		if stepNo >= maxSteps {
			putRowSlab(rows)
			putMemSlab(env.memLog)
			return nil, ErrStepLimit
		}
		row := pushRow(&rows)
		row.PC, row.Regs = pc, regs
		row.MemPtr, row.InPtr, row.JPtr = uint32(len(env.memLog)), uint32(env.inPtr), uint32(len(env.journal))
		env.step = uint32(stepNo)
		nextPC, _, halted, err := step(prog, row, &regs, env)
		if err != nil {
			putRowSlab(rows)
			putMemSlab(env.memLog)
			return nil, &TrapError{PC: pc, Step: stepNo, Reason: err.Error()}
		}
		if halted {
			prog.noteTraceSize(len(rows), len(env.memLog))
			return &Execution{
				Program:  prog,
				Rows:     rows,
				MemLog:   env.memLog,
				Journal:  env.journal,
				ExitCode: row.Regs[R1],
			}, nil
		}
		pc = nextPC
	}
}
