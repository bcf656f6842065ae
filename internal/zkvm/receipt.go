package zkvm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"zkflow/internal/field"
	"zkflow/internal/merkle"
)

// Opening is one authenticated entry revealed by the seal: Index is
// the entry's position in its table, Data the whole leaf group that
// holds it (rowsPerLeaf entries), Salt the group's blinding salt and
// Path the Merkle path of the group's leaf.
type Opening struct {
	Index int
	Salt  [saltBytes]byte
	Data  []byte
	Path  []merkle.Hash
}

// verify checks that the opening reveals entry wantIndex of an n-entry
// table of width-byte entries committed under root, and returns that
// entry's bytes. Data must be exactly the entry's leaf group, with
// every slot past the end of the table zero.
func (o *Opening) verify(root merkle.Hash, wantIndex, n, width int) ([]byte, error) {
	if o.Index != wantIndex {
		return nil, fmt.Errorf("opening at index %d, want %d", o.Index, wantIndex)
	}
	if wantIndex < 0 || wantIndex >= n {
		return nil, fmt.Errorf("opening index %d outside a %d-entry table", wantIndex, n)
	}
	if len(o.Data) != rowsPerLeaf*width {
		return nil, fmt.Errorf("opening payload %d bytes, want %d", len(o.Data), rowsPerLeaf*width)
	}
	g := wantIndex / rowsPerLeaf
	for _, b := range o.Data[min(n-g*rowsPerLeaf, rowsPerLeaf)*width:] {
		if b != 0 {
			return nil, fmt.Errorf("nonzero padding in the last leaf group")
		}
	}
	if !merkle.Verify(root, saltedLeafHash(o.Salt, o.Data), merkle.Proof{Index: g, Path: o.Path}) {
		return nil, fmt.Errorf("merkle path invalid for entry %d", wantIndex)
	}
	slot := wantIndex % rowsPerLeaf
	return o.Data[slot*width : (slot+1)*width], nil
}

// row verifies the opening as trace row i of n and decodes it.
func (o *Opening) row(root merkle.Hash, i, n int) (Row, error) {
	b, err := o.verify(root, i, n, rowBytes)
	if err != nil {
		return Row{}, err
	}
	return decodeRow(b)
}

// mem verifies the opening as memory-log entry i of n and decodes it.
func (o *Opening) mem(root merkle.Hash, i, n int) (MemEntry, error) {
	b, err := o.verify(root, i, n, memBytes)
	if err != nil {
		return MemEntry{}, err
	}
	return decodeMemEntry(b)
}

// prod verifies the opening as running product i of n and decodes it.
func (o *Opening) prod(root merkle.Hash, i, n int) (field.Elem, error) {
	b, err := o.verify(root, i, n, prodBytes)
	if err != nil {
		return 0, err
	}
	return decodeProd(b)
}

// img verifies the opening as boundary-image pair i of n and decodes
// it.
func (o *Opening) img(root merkle.Hash, i, n int) (imagePair, error) {
	b, err := o.verify(root, i, n, imgBytes)
	if err != nil {
		return imagePair{}, err
	}
	return decodeImagePair(b)
}

// size returns the encoded byte size of the opening.
func (o *Opening) size() int {
	return 4 + saltBytes + 4 + len(o.Data) + 4 + 32*len(o.Path)
}

// ExecCheck is a sampled execution-transition check: rows i and i+1
// plus the program-order memory-log entries the step consumed.
type ExecCheck struct {
	RowI, RowJ Opening
	Mem        []Opening
}

// ProdCheck is a sampled program-order running-product step check.
type ProdCheck struct {
	Entry        Opening // memProg[i+1]
	ProdI, ProdJ Opening // products at i and i+1
}

// SortCheck is a sampled address-sorted adjacency check: ordering,
// read-consistency, and the sorted running-product step.
type SortCheck struct {
	EntryI, EntryJ Opening
	ProdI, ProdJ   Opening
}

// Seal is the cryptographic proof of correct guest execution: tree
// roots, always-opened boundary leaves, and the Fiat–Shamir-sampled
// spot checks. Its size is polylogarithmic in the trace length (k
// openings of log-depth paths) — see EXPERIMENTS.md for how this
// compares with the paper's constant-size Groth16-wrapped proofs.
type Seal struct {
	NumRows uint32
	NumMem  uint32

	ExecRoot     merkle.Hash
	MemProgRoot  merkle.Hash
	MemSortRoot  merkle.Hash
	ProdProgRoot merkle.Hash
	ProdSortRoot merkle.Hash

	FirstRow Opening
	LastRow  Opening

	// Memory boundary openings; valid iff NumMem > 0.
	MemProgFirst  Opening
	MemSortFirst  Opening
	ProdProgFirst Opening
	ProdSortFirst Opening
	ProdProgLast  Opening
	ProdSortLast  Opening

	ExecChecks []ExecCheck
	ProdChecks []ProdCheck
	SortChecks []SortCheck
}

// Size returns the encoded seal size in bytes.
func (s *Seal) Size() int {
	n := 8 + 5*32 + s.FirstRow.size() + s.LastRow.size()
	if s.NumMem > 0 {
		n += s.MemProgFirst.size() + s.MemSortFirst.size() +
			s.ProdProgFirst.size() + s.ProdSortFirst.size() +
			s.ProdProgLast.size() + s.ProdSortLast.size()
	}
	n += 12 // check counts
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		n += 4 + c.RowI.size() + c.RowJ.size()
		for j := range c.Mem {
			n += c.Mem[j].size()
		}
	}
	for i := range s.ProdChecks {
		c := &s.ProdChecks[i]
		n += c.Entry.size() + c.ProdI.size() + c.ProdJ.size()
	}
	for i := range s.SortChecks {
		c := &s.SortChecks[i]
		n += c.EntryI.size() + c.EntryJ.size() + c.ProdI.size() + c.ProdJ.size()
	}
	return n
}

// Receipt is the verifiable record of a guest execution: the public
// journal plus the seal, bound to the guest's image ID — the same
// shape as a RISC Zero receipt.
type Receipt struct {
	ImageID  ImageID
	ExitCode uint32
	Journal  []uint32
	Seal     Seal
}

// JournalBytes serialises the journal words little-endian; this is
// the byte string other protocols (aggregation chaining) hash.
func (r *Receipt) JournalBytes() []byte {
	out := make([]byte, 4*len(r.Journal))
	for i, w := range r.Journal {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// JournalSize returns the journal size in bytes.
func (r *Receipt) JournalSize() int { return 4 * len(r.Journal) }

// SealSize returns the seal (proof) size in bytes.
func (r *Receipt) SealSize() int { return r.Seal.Size() }

// Size returns the full encoded receipt size in bytes.
func (r *Receipt) Size() int { return len(mustMarshalReceipt(r)) }

func mustMarshalReceipt(r *Receipt) []byte {
	b, err := r.MarshalBinary()
	if err != nil {
		panic(err) // encoding is infallible for in-memory receipts
	}
	return b
}

// --- binary encoding ---

type bwriter struct{ buf []byte }

func (w *bwriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *bwriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *bwriter) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *bwriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.raw(b)
}
func (w *bwriter) hash(h merkle.Hash) { w.raw(h[:]) }
func (w *bwriter) opening(o *Opening) {
	w.u32(uint32(o.Index))
	w.raw(o.Salt[:])
	w.bytes(o.Data)
	w.u32(uint32(len(o.Path)))
	for _, h := range o.Path {
		w.hash(h)
	}
}

type breader struct {
	buf []byte
	off int
	err error
}

var errTruncated = errors.New("zkvm: truncated receipt")

func (r *breader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = errTruncated
		return false
	}
	return true
}

func (r *breader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *breader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *breader) raw(n int) []byte {
	if !r.need(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *breader) bytes() []byte {
	n := r.u32()
	if n > uint32(len(r.buf)) {
		r.err = errTruncated
		return nil
	}
	return r.raw(int(n))
}

func (r *breader) hash() merkle.Hash {
	var h merkle.Hash
	copy(h[:], r.raw(32))
	return h
}

func (r *breader) opening() Opening {
	var o Opening
	o.Index = int(r.u32())
	copy(o.Salt[:], r.raw(saltBytes))
	o.Data = append([]byte(nil), r.bytes()...)
	n := r.u32()
	if n > uint32(len(r.buf)) {
		r.err = errTruncated
		return o
	}
	o.Path = make([]merkle.Hash, n)
	for i := range o.Path {
		o.Path[i] = r.hash()
	}
	return o
}

// receiptMagic versions the encoding.
const receiptMagic = 0x7a6b6631 // "zkf1"

// MarshalBinary encodes the receipt.
func (r *Receipt) MarshalBinary() ([]byte, error) {
	w := &bwriter{}
	w.u32(receiptMagic)
	w.raw(r.ImageID[:])
	w.u32(r.ExitCode)
	w.u32(uint32(len(r.Journal)))
	for _, j := range r.Journal {
		w.u32(j)
	}
	s := &r.Seal
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
	return w.buf, nil
}

// UnmarshalReceipt decodes a receipt produced by MarshalBinary.
func UnmarshalReceipt(data []byte) (*Receipt, error) {
	rd := &breader{buf: data}
	if rd.u32() != receiptMagic {
		return nil, errors.New("zkvm: bad receipt magic")
	}
	var r Receipt
	copy(r.ImageID[:], rd.raw(32))
	r.ExitCode = rd.u32()
	nj := rd.u32()
	if nj > uint32(len(data)) {
		return nil, errTruncated
	}
	r.Journal = make([]uint32, nj)
	for i := range r.Journal {
		r.Journal[i] = rd.u32()
	}
	s := &r.Seal
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
	if ne > uint32(len(data)) {
		return nil, errTruncated
	}
	s.ExecChecks = make([]ExecCheck, ne)
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		c.RowI = rd.opening()
		c.RowJ = rd.opening()
		nm := rd.u32()
		if nm > uint32(len(data)) {
			return nil, errTruncated
		}
		c.Mem = make([]Opening, nm)
		for j := range c.Mem {
			c.Mem[j] = rd.opening()
		}
	}
	np := rd.u32()
	if np > uint32(len(data)) {
		return nil, errTruncated
	}
	s.ProdChecks = make([]ProdCheck, np)
	for i := range s.ProdChecks {
		c := &s.ProdChecks[i]
		c.Entry = rd.opening()
		c.ProdI = rd.opening()
		c.ProdJ = rd.opening()
	}
	ns := rd.u32()
	if ns > uint32(len(data)) {
		return nil, errTruncated
	}
	s.SortChecks = make([]SortCheck, ns)
	for i := range s.SortChecks {
		c := &s.SortChecks[i]
		c.EntryI = rd.opening()
		c.EntryJ = rd.opening()
		c.ProdI = rd.opening()
		c.ProdJ = rd.opening()
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(data) {
		return nil, errors.New("zkvm: trailing bytes after receipt")
	}
	return &r, nil
}
