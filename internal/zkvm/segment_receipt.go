package zkvm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ImportCheck is a sampled entry-image import check: program-order log
// entry i must be a synthetic import write of entry-image pair i.
type ImportCheck struct {
	MemProg Opening // memProg[i]
	Img     Opening // entry-image leaf i
}

// ExitCheck is a sampled exit-image membership check: exit-image leaf
// j must equal the value after the last sorted-log access of its
// address. Pos is the prover-supplied sorted-log position of that last
// access; the opening of position Pos+1 (when it exists) proves
// last-ness, given the separately-sampled sorted-order invariant.
type ExitCheck struct {
	Img    Opening // exit-image leaf j
	Pos    uint32  // last-access position in the sorted log
	SortP  Opening // memSort[Pos]
	HasP1  bool
	SortP1 Opening // memSort[Pos+1], present iff Pos+1 < NumMem
}

// CoverCheck is the converse sampled check: if sorted-log entry i is
// the last access of its address and leaves a nonzero value, that
// (addr, val) must appear in the exit image at prover-supplied index
// ExitIdx. Together with ExitCheck this pins the exit image to exactly
// the live nonzero words (up to sampling soundness).
type CoverCheck struct {
	EntryI  Opening // memSort[i]
	HasJ    bool
	EntryJ  Opening // memSort[i+1], present iff i+1 < NumMem
	HasImg  bool
	ExitIdx uint32
	Img     Opening // exit-image leaf ExitIdx, present iff last and val != 0
}

// SegmentReceipt proves one bounded-cycle slice of a guest run. Its
// seal has the same shape as a single-segment receipt, with the
// initial-state and halt rules replaced by entry/exit state binding
// and three extra sampled-check families for the boundary images.
type SegmentReceipt struct {
	ImageID  ImageID
	Index    uint32
	Final    bool
	ExitCode uint32   // meaningful only on the final segment
	Journal  []uint32 // this segment's journal slice
	Entry    SegmentState
	Exit     SegmentState // zero value on the final segment
	Seal     Seal

	ImportChecks []ImportCheck
	ExitChecks   []ExitCheck
	CoverChecks  []CoverCheck
}

// CompositeReceipt chains segment receipts into a proof of the whole
// run: exit(i) == entry(i+1), entry(0) == genesis, and the final
// segment halts publicly. The composite journal is the concatenation
// of the segment journals.
type CompositeReceipt struct {
	Segments []*SegmentReceipt
}

// AnyReceipt is the common surface of single-segment and composite
// receipts: the public statement plus binary encoding. Consumers that
// only chain journals and sizes (the ledger, the HTTP API) work with
// either form.
type AnyReceipt interface {
	// Image returns the guest image the receipt attests to.
	Image() ImageID
	// ExitStatus returns the guest's halt exit code.
	ExitStatus() uint32
	// JournalWords returns the public journal (read-only).
	JournalWords() []uint32
	// JournalBytes serialises the journal little-endian.
	JournalBytes() []byte
	// SealSize returns the proof size in bytes.
	SealSize() int
	// Size returns the full encoded receipt size in bytes.
	Size() int
	MarshalBinary() ([]byte, error)
}

// Image implements AnyReceipt.
func (r *Receipt) Image() ImageID { return r.ImageID }

// ExitStatus implements AnyReceipt.
func (r *Receipt) ExitStatus() uint32 { return r.ExitCode }

// JournalWords implements AnyReceipt.
func (r *Receipt) JournalWords() []uint32 { return r.Journal }

// Image implements AnyReceipt.
func (c *CompositeReceipt) Image() ImageID {
	if len(c.Segments) == 0 {
		return ImageID{}
	}
	return c.Segments[0].ImageID
}

// ExitStatus implements AnyReceipt.
func (c *CompositeReceipt) ExitStatus() uint32 {
	if len(c.Segments) == 0 {
		return 0
	}
	return c.Segments[len(c.Segments)-1].ExitCode
}

// JournalWords implements AnyReceipt: the concatenated segment
// journals.
func (c *CompositeReceipt) JournalWords() []uint32 {
	n := 0
	for _, s := range c.Segments {
		n += len(s.Journal)
	}
	out := make([]uint32, 0, n)
	for _, s := range c.Segments {
		out = append(out, s.Journal...)
	}
	return out
}

// JournalBytes implements AnyReceipt.
func (c *CompositeReceipt) JournalBytes() []byte {
	words := c.JournalWords()
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// SealSize implements AnyReceipt: the sum of the segment proof sizes.
func (c *CompositeReceipt) SealSize() int {
	n := 0
	for _, sr := range c.Segments {
		n += sr.Seal.Size()
		for i := range sr.ImportChecks {
			n += sr.ImportChecks[i].MemProg.size() + sr.ImportChecks[i].Img.size()
		}
		for i := range sr.ExitChecks {
			e := &sr.ExitChecks[i]
			n += e.Img.size() + 4 + e.SortP.size()
			if e.HasP1 {
				n += e.SortP1.size()
			}
		}
		for i := range sr.CoverChecks {
			cc := &sr.CoverChecks[i]
			n += cc.EntryI.size()
			if cc.HasJ {
				n += cc.EntryJ.size()
			}
			if cc.HasImg {
				n += 4 + cc.Img.size()
			}
		}
		n += 2*stateBytes + 4*len(sr.Journal)
	}
	return n
}

// Size implements AnyReceipt.
func (c *CompositeReceipt) Size() int {
	b, err := c.MarshalBinary()
	if err != nil {
		panic(err) // encoding is infallible for in-memory receipts
	}
	return len(b)
}

// NumSegments returns the segment count.
func (c *CompositeReceipt) NumSegments() int { return len(c.Segments) }

// compositeMagic versions the composite-receipt encoding.
const compositeMagic = 0x7a6b6632 // "zkf2"

// writeSeal appends a seal in exactly the layout Receipt.MarshalBinary
// uses for its seal section.
func writeSeal(w *bwriter, s *Seal) {
	w.u32(s.NumRows)
	w.u32(s.NumMem)
	w.hash(s.ExecRoot)
	w.hash(s.MemProgRoot)
	w.hash(s.MemSortRoot)
	w.hash(s.ProdProgRoot)
	w.hash(s.ProdSortRoot)
	w.opening(&s.FirstRow)
	w.opening(&s.LastRow)
	if s.NumMem > 0 {
		w.opening(&s.MemProgFirst)
		w.opening(&s.MemSortFirst)
		w.opening(&s.ProdProgFirst)
		w.opening(&s.ProdSortFirst)
		w.opening(&s.ProdProgLast)
		w.opening(&s.ProdSortLast)
	}
	w.u32(uint32(len(s.ExecChecks)))
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		w.opening(&c.RowI)
		w.opening(&c.RowJ)
		w.u32(uint32(len(c.Mem)))
		for j := range c.Mem {
			w.opening(&c.Mem[j])
		}
	}
	w.u32(uint32(len(s.ProdChecks)))
	for i := range s.ProdChecks {
		c := &s.ProdChecks[i]
		w.opening(&c.Entry)
		w.opening(&c.ProdI)
		w.opening(&c.ProdJ)
	}
	w.u32(uint32(len(s.SortChecks)))
	for i := range s.SortChecks {
		c := &s.SortChecks[i]
		w.opening(&c.EntryI)
		w.opening(&c.EntryJ)
		w.opening(&c.ProdI)
		w.opening(&c.ProdJ)
	}
}

// readSeal decodes a seal written by writeSeal.
func readSeal(rd *breader, s *Seal) {
	s.NumRows = rd.u32()
	s.NumMem = rd.u32()
	s.ExecRoot = rd.hash()
	s.MemProgRoot = rd.hash()
	s.MemSortRoot = rd.hash()
	s.ProdProgRoot = rd.hash()
	s.ProdSortRoot = rd.hash()
	s.FirstRow = rd.opening()
	s.LastRow = rd.opening()
	if s.NumMem > 0 {
		s.MemProgFirst = rd.opening()
		s.MemSortFirst = rd.opening()
		s.ProdProgFirst = rd.opening()
		s.ProdSortFirst = rd.opening()
		s.ProdProgLast = rd.opening()
		s.ProdSortLast = rd.opening()
	}
	ne := rd.u32()
	if ne > uint32(len(rd.buf)) {
		rd.err = errTruncated
		return
	}
	s.ExecChecks = make([]ExecCheck, ne)
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		c.RowI = rd.opening()
		c.RowJ = rd.opening()
		nm := rd.u32()
		if nm > uint32(len(rd.buf)) {
			rd.err = errTruncated
			return
		}
		c.Mem = make([]Opening, nm)
		for j := range c.Mem {
			c.Mem[j] = rd.opening()
		}
	}
	np := rd.u32()
	if np > uint32(len(rd.buf)) {
		rd.err = errTruncated
		return
	}
	s.ProdChecks = make([]ProdCheck, np)
	for i := range s.ProdChecks {
		c := &s.ProdChecks[i]
		c.Entry = rd.opening()
		c.ProdI = rd.opening()
		c.ProdJ = rd.opening()
	}
	ns := rd.u32()
	if ns > uint32(len(rd.buf)) {
		rd.err = errTruncated
		return
	}
	s.SortChecks = make([]SortCheck, ns)
	for i := range s.SortChecks {
		c := &s.SortChecks[i]
		c.EntryI = rd.opening()
		c.EntryJ = rd.opening()
		c.ProdI = rd.opening()
		c.ProdJ = rd.opening()
	}
}

func (w *bwriter) state(s *SegmentState) { w.raw(encodeState(s)) }

func (rd *breader) state() SegmentState {
	b := rd.raw(stateBytes)
	if rd.err != nil {
		return SegmentState{}
	}
	s, err := decodeState(b)
	if err != nil {
		rd.err = err
	}
	return s
}

func (w *bwriter) flag(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (rd *breader) flag() bool {
	v := rd.u8()
	if v > 1 {
		rd.err = errors.New("zkvm: bad flag byte")
	}
	return v == 1
}

// MarshalBinary encodes the composite receipt.
func (c *CompositeReceipt) MarshalBinary() ([]byte, error) {
	w := &bwriter{}
	w.u32(compositeMagic)
	w.u32(uint32(len(c.Segments)))
	for _, sr := range c.Segments {
		w.raw(sr.ImageID[:])
		w.u32(sr.Index)
		w.flag(sr.Final)
		w.u32(sr.ExitCode)
		w.u32(uint32(len(sr.Journal)))
		for _, j := range sr.Journal {
			w.u32(j)
		}
		w.state(&sr.Entry)
		w.state(&sr.Exit)
		writeSeal(w, &sr.Seal)
		w.u32(uint32(len(sr.ImportChecks)))
		for i := range sr.ImportChecks {
			w.opening(&sr.ImportChecks[i].MemProg)
			w.opening(&sr.ImportChecks[i].Img)
		}
		w.u32(uint32(len(sr.ExitChecks)))
		for i := range sr.ExitChecks {
			e := &sr.ExitChecks[i]
			w.opening(&e.Img)
			w.u32(e.Pos)
			w.opening(&e.SortP)
			w.flag(e.HasP1)
			if e.HasP1 {
				w.opening(&e.SortP1)
			}
		}
		w.u32(uint32(len(sr.CoverChecks)))
		for i := range sr.CoverChecks {
			cc := &sr.CoverChecks[i]
			w.opening(&cc.EntryI)
			w.flag(cc.HasJ)
			if cc.HasJ {
				w.opening(&cc.EntryJ)
			}
			w.flag(cc.HasImg)
			if cc.HasImg {
				w.u32(cc.ExitIdx)
				w.opening(&cc.Img)
			}
		}
	}
	return w.buf, nil
}

// UnmarshalComposite decodes a composite receipt.
func UnmarshalComposite(data []byte) (*CompositeReceipt, error) {
	rd := &breader{buf: data}
	if rd.u32() != compositeMagic {
		return nil, errors.New("zkvm: bad composite receipt magic")
	}
	n := rd.u32()
	if n > uint32(len(data)) {
		return nil, errTruncated
	}
	c := &CompositeReceipt{Segments: make([]*SegmentReceipt, n)}
	for si := range c.Segments {
		sr := &SegmentReceipt{}
		copy(sr.ImageID[:], rd.raw(32))
		sr.Index = rd.u32()
		sr.Final = rd.flag()
		sr.ExitCode = rd.u32()
		nj := rd.u32()
		if nj > uint32(len(data)) {
			return nil, errTruncated
		}
		sr.Journal = make([]uint32, nj)
		for i := range sr.Journal {
			sr.Journal[i] = rd.u32()
		}
		sr.Entry = rd.state()
		sr.Exit = rd.state()
		readSeal(rd, &sr.Seal)
		ni := rd.u32()
		if ni > uint32(len(data)) {
			return nil, errTruncated
		}
		sr.ImportChecks = make([]ImportCheck, ni)
		for i := range sr.ImportChecks {
			sr.ImportChecks[i].MemProg = rd.opening()
			sr.ImportChecks[i].Img = rd.opening()
		}
		ne := rd.u32()
		if ne > uint32(len(data)) {
			return nil, errTruncated
		}
		sr.ExitChecks = make([]ExitCheck, ne)
		for i := range sr.ExitChecks {
			e := &sr.ExitChecks[i]
			e.Img = rd.opening()
			e.Pos = rd.u32()
			e.SortP = rd.opening()
			e.HasP1 = rd.flag()
			if e.HasP1 {
				e.SortP1 = rd.opening()
			}
		}
		nc := rd.u32()
		if nc > uint32(len(data)) {
			return nil, errTruncated
		}
		sr.CoverChecks = make([]CoverCheck, nc)
		for i := range sr.CoverChecks {
			cc := &sr.CoverChecks[i]
			cc.EntryI = rd.opening()
			cc.HasJ = rd.flag()
			if cc.HasJ {
				cc.EntryJ = rd.opening()
			}
			cc.HasImg = rd.flag()
			if cc.HasImg {
				cc.ExitIdx = rd.u32()
				cc.Img = rd.opening()
			}
		}
		c.Segments[si] = sr
		if rd.err != nil {
			return nil, rd.err
		}
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(data) {
		return nil, errors.New("zkvm: trailing bytes after composite receipt")
	}
	return c, nil
}

// UnmarshalAnyReceipt decodes either receipt kind — single-segment or
// continuation composite — by its wire magic. Any other magic is
// rejected.
func UnmarshalAnyReceipt(data []byte) (AnyReceipt, error) {
	if len(data) < 4 {
		return nil, errTruncated
	}
	switch magic := binary.LittleEndian.Uint32(data); magic {
	case receiptMagic:
		return UnmarshalReceipt(data)
	case compositeMagic:
		return UnmarshalComposite(data)
	default:
		return nil, fmt.Errorf("zkvm: unknown receipt magic %#x", magic)
	}
}

// VerifyAny verifies either receipt kind against the guest program.
func VerifyAny(prog *Program, r AnyReceipt, opts VerifyOptions) error {
	switch t := r.(type) {
	case *Receipt:
		return Verify(prog, t, opts)
	case *CompositeReceipt:
		return VerifyComposite(prog, t, opts)
	default:
		return vErr("unknown receipt type %T", r)
	}
}
