package zkvm

// Count-only guest execution for segment planning. A farm coordinator
// calls PlanSegments once per dispatched epoch just to learn how many
// segment indices to hand out; paying the full traced execution for
// that — materialising tens of millions of Rows and MemEntries plus a
// boundary image per cut, all immediately discarded — made planning
// cost a large serial fraction of a farmed prove (E18). countSegments
// replays the exact cut schedule of executeSegmented through the same
// step function, but against an environment that records nothing: no
// trace rows, no memory log, no boundary images. Only the guest memory,
// the input cursor and the journal (needed for guest-abort parity)
// are kept, so planning runs at raw emulation speed and allocates
// almost nothing.

// countEnv is the recording-free twin of emuEnv. Loads and stores hit
// the guest memory directly with no log append; the journal is still
// accumulated because PlanSegments surfaces it on guest aborts.
type countEnv struct {
	mem     memory
	input   []uint32
	inPtr   int
	journal []uint32
}

func (e *countEnv) load(addr uint32) (uint32, error) { return e.mem.get(addr), nil }

func (e *countEnv) store(addr, val uint32) error {
	e.mem.set(addr, val)
	return nil
}

func (e *countEnv) readInput() (uint32, error) {
	if e.inPtr >= len(e.input) {
		return 0, errInputExhausted
	}
	v := e.input[e.inPtr]
	e.inPtr++
	return v, nil
}

func (e *countEnv) inputLen() (uint32, error) {
	return uint32(len(e.input) - e.inPtr), nil
}

func (e *countEnv) writeJournal(val uint32) error {
	e.journal = append(e.journal, val)
	return nil
}

// countSegments executes the guest untraced and returns the segment
// count a traced executeSegmented run would produce under the same
// options, plus the exit code and full journal. The loop mirrors
// executeSegmented cut for cut — a segment closes after segmentCycles
// real rows, and the halt row belongs to whichever segment is open —
// and both call the same step function, so the count, every trap, and
// the step-limit behaviour match the traced path exactly.
func countSegments(prog *Program, input []uint32, opts ExecOptions, segmentCycles int) (n int, exitCode uint32, journal []uint32, err error) {
	if segmentCycles < minSegmentCycles {
		segmentCycles = minSegmentCycles
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	env := &countEnv{input: input}
	var (
		row     Row
		next    [NumRegs]uint32
		segRows int
	)
	n = 1
	for stepNo := 0; ; stepNo++ {
		if stepNo >= maxSteps {
			return 0, 0, nil, ErrStepLimit
		}
		if segRows == segmentCycles {
			n++
			segRows = 0
		}
		segRows++
		nextPC, _, halted, stepErr := step(prog, &row, &next, env)
		if stepErr != nil {
			return 0, 0, nil, &TrapError{PC: row.PC, Step: stepNo, Reason: stepErr.Error()}
		}
		if halted {
			return n, row.Regs[R1], env.journal, nil
		}
		row.PC, row.Regs = nextPC, next
	}
}
