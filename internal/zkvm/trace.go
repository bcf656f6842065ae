package zkvm

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"zkflow/internal/field"
	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
)

// Serialized sizes of committed table entries.
const (
	rowBytes  = 4 + 4*NumRegs + 4 + 4 + 4 // PC, regs, MemPtr, InPtr, JPtr
	memBytes  = 4 + 4 + 4 + 4 + 1         // Addr, Val, Seq, Step, IsWrite
	prodBytes = 8                         // one field element
	saltBytes = aes.BlockSize
	// maxEntryBytes bounds every committed entry.
	maxEntryBytes = rowBytes
)

// rowsPerLeaf is how many consecutive entries of a table one salted
// leaf commits: leaf g is 0x00 || salt_g || entry 4g || ... ||
// entry 4g+3, with the slots past the end of the table zero. Packing
// cuts the salts, the leaf-padding blocks and the internal nodes of
// every tree by 4x; sampled transitions open adjacent entries, which
// mostly share a leaf.
const rowsPerLeaf = 4

// Every packed leaf message 0x00 || salt || group fits one hashk.Msg;
// this fails to compile if a leaf outgrows it.
const _ = uint(hashk.MaxMsg - (1 + saltBytes + rowsPerLeaf*maxEntryBytes))

// encodeRowInto serialises a trace row into b (len >= rowBytes).
// Allocation-free so the commit pipeline can stream rows through a
// reused scratch buffer.
func encodeRowInto(b []byte, r *Row) {
	binary.LittleEndian.PutUint32(b[0:], r.PC)
	for i, v := range r.Regs {
		binary.LittleEndian.PutUint32(b[4+4*i:], v)
	}
	off := 4 + 4*NumRegs
	binary.LittleEndian.PutUint32(b[off:], r.MemPtr)
	binary.LittleEndian.PutUint32(b[off+4:], r.InPtr)
	binary.LittleEndian.PutUint32(b[off+8:], r.JPtr)
}

// decodeRow parses a serialised trace row.
func decodeRow(b []byte) (Row, error) {
	var r Row
	if len(b) != rowBytes {
		return r, fmt.Errorf("zkvm: row leaf has %d bytes, want %d", len(b), rowBytes)
	}
	r.PC = binary.LittleEndian.Uint32(b[0:])
	for i := range r.Regs {
		r.Regs[i] = binary.LittleEndian.Uint32(b[4+4*i:])
	}
	off := 4 + 4*NumRegs
	r.MemPtr = binary.LittleEndian.Uint32(b[off:])
	r.InPtr = binary.LittleEndian.Uint32(b[off+4:])
	r.JPtr = binary.LittleEndian.Uint32(b[off+8:])
	return r, nil
}

// encodeMemEntryInto serialises a memory-log entry into b
// (len >= memBytes), allocation-free.
func encodeMemEntryInto(b []byte, e *MemEntry) {
	binary.LittleEndian.PutUint32(b[0:], e.Addr)
	binary.LittleEndian.PutUint32(b[4:], e.Val)
	binary.LittleEndian.PutUint32(b[8:], e.Seq)
	binary.LittleEndian.PutUint32(b[12:], e.Step)
	if e.IsWrite {
		b[16] = 1
	} else {
		b[16] = 0
	}
}

// decodeMemEntry parses a serialised memory-log entry.
func decodeMemEntry(b []byte) (MemEntry, error) {
	var e MemEntry
	if len(b) != memBytes {
		return e, fmt.Errorf("zkvm: mem leaf has %d bytes, want %d", len(b), memBytes)
	}
	if b[16] > 1 {
		return e, fmt.Errorf("zkvm: mem leaf flag byte %d", b[16])
	}
	e.Addr = binary.LittleEndian.Uint32(b[0:])
	e.Val = binary.LittleEndian.Uint32(b[4:])
	e.Seq = binary.LittleEndian.Uint32(b[8:])
	e.Step = binary.LittleEndian.Uint32(b[12:])
	e.IsWrite = b[16] == 1
	return e, nil
}

// encodeProdInto serialises a running-product element into b
// (len >= prodBytes), allocation-free.
func encodeProdInto(b []byte, p field.Elem) {
	binary.LittleEndian.PutUint64(b, uint64(p))
}

// decodeProd parses a running-product element.
func decodeProd(b []byte) (field.Elem, error) {
	if len(b) != prodBytes {
		return 0, fmt.Errorf("zkvm: product leaf has %d bytes, want %d", len(b), prodBytes)
	}
	v := binary.LittleEndian.Uint64(b)
	if v >= field.Modulus {
		return 0, fmt.Errorf("zkvm: non-canonical product element")
	}
	return field.Elem(v), nil
}

// saltCipher keys the salt PRF of one proof: AES-256 under its secret
// 32-byte seed.
func saltCipher(seed *[32]byte) cipher.Block {
	blk, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	return blk
}

// saltCounter writes the AES input block of leaf g of a table:
// label || 0^7 || g as a big-endian uint64. Successive leaves are
// successive CTR counter blocks, so a run of salts is one keystream.
func saltCounter(b *[aes.BlockSize]byte, treeLabel byte, g int) {
	*b = [aes.BlockSize]byte{0: treeLabel}
	binary.BigEndian.PutUint64(b[8:], uint64(g))
}

// deriveSalt writes the blinding salt of leaf g, one AES block, into
// salt. Every committed leaf is salted so that unopened leaves reveal
// nothing about the trace: hiding rests on AES as a PRF under the
// secret seed, and the verifier never derives a salt. It encrypts in
// place into the caller's block, since a block handed through the
// cipher.Block interface escapes: a local one would cost an
// allocation per salt.
func deriveSalt(salt *[saltBytes]byte, blk cipher.Block, treeLabel byte, g int) {
	saltCounter(salt, treeLabel, g)
	blk.Encrypt(salt[:], salt[:])
}

// saltedLeafHash is the committed hash of (salt || group), hashed
// without materializing the concatenation (zero allocations for every
// committed leaf shape in this package).
func saltedLeafHash(salt [saltBytes]byte, payload []byte) merkle.Hash {
	return hashk.Leaf2[merkle.Hash](salt[:], payload)
}

// Tree labels for salt domain separation.
const (
	treeExec byte = iota + 1
	treeMemProg
	treeMemSort
	treeProdProg
	treeProdSort
)

// table is one committed, salted table of a seal: its Merkle tree and
// what the opener needs to rebuild an opened leaf. The commit streamed
// every payload through scratch, so an opening re-encodes its group on
// demand; encoding is deterministic, so the bytes are exactly the ones
// hashed into the committed leaf.
type table struct {
	tree     *merkle.Tree
	salts    cipher.Block
	label    byte
	n, width int
	enc      func(i int, dst []byte)
}

// commitStream builds a salted, packed Merkle tree over an n-entry
// table of width-byte entries without ever materializing the leaf
// payloads: encode(i, dst) serialises entry i straight into the leaf
// message of its group, and the leaf hash streams out of it.
//
// Leaf hashing and the tree's internal levels both fan out in
// contiguous chunks over the pool it is handed, so a nested stage
// stays within its share of ProveOptions.Parallelism and a 1-worker
// pool hashes every leaf inline, in index order. Chunking is purely
// index-partitioned, so the tree is byte-identical at any pool width.
func commitStream(seed *[32]byte, label byte, n, width int, pool *workerPool, encode func(i int, dst []byte)) *table {
	t := &table{salts: saltCipher(seed), label: label, n: n, width: width, enc: encode}
	t.tree = merkle.BuildLeavesParallel(numLeaves(n), pool.workers, func(hashes []merkle.Hash) {
		t.hashLeaves(pool, hashes)
	})
	return t
}

// numLeaves is the leaf count of a packed n-entry table.
func numLeaves(n int) int { return (n + rowsPerLeaf - 1) / rowsPerLeaf }

// encodeGroup serialises leaf group g into dst (rowsPerLeaf*width
// bytes), zeroing the slots past the end of the table.
func (t *table) encodeGroup(dst []byte, g int) {
	for j := range rowsPerLeaf {
		slot := dst[j*t.width : (j+1)*t.width]
		if i := g*rowsPerLeaf + j; i < t.n {
			t.enc(i, slot)
		} else {
			clear(slot)
		}
	}
}

// root is the table's commitment.
func (t *table) root() merkle.Hash { return t.tree.Root() }

// open reveals entry i: the whole leaf group holding it, the group's
// salt and its Merkle path. The indices a prover opens are derived
// from committed lengths, so a failure is a prover bug.
func (t *table) open(i int) Opening {
	g := i / rowsPerLeaf
	proof, err := t.tree.Prove(g)
	if err != nil {
		panic(fmt.Sprintf("zkvm: opening entry %d: %v", i, err))
	}
	// The salt is derived in the block ahead of the group in one
	// buffer, so it costs no allocation of its own.
	buf := make([]byte, saltBytes+rowsPerLeaf*t.width)
	salt := (*[saltBytes]byte)(buf)
	deriveSalt(salt, t.salts, t.label, g)
	data := buf[saltBytes:]
	t.encodeGroup(data, g)
	return Opening{Index: i, Salt: *salt, Data: data, Path: proof.Path}
}

// release returns the tree's storage to its pool.
func (t *table) release() { t.tree.Release() }

// saltBatch is how many salts hashLeaves draws from the keystream at
// a time (even, so a pair of leaves never straddles two draws).
const saltBatch = 64

// hashLeaves fills hashes[g] with the salted hash of leaf group g, one
// contiguous run of groups per pool worker.
func (t *table) hashLeaves(pool *workerPool, hashes []merkle.Hash) {
	pool.forChunks(len(hashes), func(lo, hi int) {
		// A chunk's salts are one AES-CTR keystream that starts at its
		// first group's counter block. The two leaf messages (0x00 ||
		// salt || group) are padded once and patched per group; groups
		// go two per kernel call, an odd last one alone. The digests are
		// exactly deriveSalt + saltedLeafHash over each group —
		// TestHashLeavesMatchesReference pins the equivalence.
		//
		// The counter block, the keystream batch and the leaf messages
		// all escape (through the cipher interfaces and the encoder),
		// so they share one allocation per chunk.
		sc := new(struct {
			iv   [aes.BlockSize]byte
			ks   [saltBatch * saltBytes]byte
			leaf [2]hashk.Msg
		})
		saltCounter(&sc.iv, t.label, lo)
		ctr := cipher.NewCTR(t.salts, sc.iv[:])
		ks, leaf := sc.ks[:], &sc.leaf
		var l [2][]byte
		for k := range leaf {
			leaf[k] = hashk.NewMsg(1 + saltBytes + rowsPerLeaf*t.width)
			l[k] = leaf[k].Bytes()
			l[k][0] = hashk.LeafPrefix
		}
		fill := func(k, g int) {
			off := (g - lo) % saltBatch * saltBytes
			copy(l[k][1:], ks[off:off+saltBytes])
			t.encodeGroup(l[k][1+saltBytes:], g)
		}
		for g := lo; g < hi; g += 2 {
			if (g-lo)%saltBatch == 0 {
				draw := ks[:min(hi-g, saltBatch)*saltBytes]
				clear(draw)
				ctr.XORKeyStream(draw, draw)
			}
			fill(0, g)
			if g+1 == hi {
				hashes[g] = hashk.Sum[merkle.Hash](&leaf[0])
				break
			}
			fill(1, g+1)
			hashes[g], hashes[g+1] = hashk.Sum2[merkle.Hash](&leaf[0], &leaf[1])
		}
	})
}

// sortedMemLog returns the memory log ordered by (Addr, Seq) — the
// layout the memory-consistency rules are checked on. Seq is unique,
// so the (Addr, Seq) key is a strict total order and the result is the
// same permutation under any correct sort. It is an LSD radix sort on
// the 8-byte key, linear in the log: one histogram pass counts every
// key byte, and a byte position where all keys agree costs no pass.
// The Seq bytes cost none either when the log is already in Seq order,
// as every program-order log is: the stable passes over them would
// leave it as it is. The copy comes from the slab pool; the caller
// releases it with putMemSlab once the openings are done.
func sortedMemLog(log []MemEntry) []MemEntry {
	out := memSlabOfLen(len(log))
	if len(log) == 0 {
		return out
	}
	var hist [8][256]int
	inSeqOrder := true
	for i := range log {
		e := &log[i]
		k := memKey(e)
		for b := range hist {
			hist[b][byte(k>>(8*b))]++
		}
		if i > 0 && e.Seq <= log[i-1].Seq {
			inSeqOrder = false
		}
	}
	var passes []int
	for b := range hist {
		if b < 4 && inSeqOrder {
			continue
		}
		if hist[b][byte(memKey(&log[0])>>(8*b))] != len(log) {
			passes = append(passes, b)
		}
	}
	if len(passes) == 0 {
		copy(out, log)
		return out
	}
	// Ping-pong through a scratch slab, so that the last pass lands
	// in out.
	tmp := memSlabOfLen(len(log))
	defer putMemSlab(tmp)
	bufs := [2][]MemEntry{out, tmp}
	src := log
	for k, b := range passes {
		dst := bufs[(len(passes)-1-k)%2]
		var next [256]int
		pos := 0
		for d, c := range hist[b] {
			next[d] = pos
			pos += c
		}
		shift := 8 * b
		for i := range src {
			d := byte(memKey(&src[i]) >> shift)
			dst[next[d]] = src[i]
			next[d]++
		}
		src = dst
	}
	return out
}

// memKey is the (Addr, Seq) sort key of a memory entry.
func memKey(e *MemEntry) uint64 { return uint64(e.Addr)<<32 | uint64(e.Seq) }

// memSlabOfLen returns a pooled slab of length n.
func memSlabOfLen(n int) []MemEntry {
	s := getMemSlab()
	if cap(s) < n {
		return make([]MemEntry, n)
	}
	return s[:n]
}

// fingerprint maps a memory entry to a field element under the
// Fiat–Shamir challenge alpha. Two logs are multiset-equal iff the
// products of (gamma - fingerprint) agree (w.h.p. over alpha, gamma).
func fingerprint(e *MemEntry, alpha field.Elem) field.Elem {
	acc := field.New(uint64(e.Addr))
	a := alpha
	acc = field.Add(acc, field.Mul(a, field.New(uint64(e.Val))))
	a = field.Mul(a, alpha)
	acc = field.Add(acc, field.Mul(a, field.New(uint64(e.Seq))))
	a = field.Mul(a, alpha)
	acc = field.Add(acc, field.Mul(a, field.New(uint64(e.Step))))
	a = field.Mul(a, alpha)
	if e.IsWrite {
		acc = field.Add(acc, a)
	}
	return acc
}

// runningProducts returns P with P[i] = prod_{j<=i} (gamma - f(e_j)).
// Wide pools use a three-phase parallel prefix scan: per-chunk local
// products, a serial pass over the (few) chunk totals, then a
// parallel rescale. Field multiplication is exactly associative, so
// the result is bit-identical to the serial scan.
func runningProducts(log []MemEntry, alpha, gamma field.Elem, pool *workerPool) []field.Elem {
	n := len(log)
	out := make([]field.Elem, n)
	if pool.workers == 1 || n < 2*pool.workers {
		acc := field.One
		for i := range log {
			acc = field.Mul(acc, field.Sub(gamma, fingerprint(&log[i], alpha)))
			out[i] = acc
		}
		return out
	}
	chunk := (n + pool.workers - 1) / pool.workers
	var bounds [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
	}
	totals := make([]field.Elem, len(bounds))
	local := make([]func(), len(bounds))
	for c := range bounds {
		c := c
		local[c] = func() {
			lo, hi := bounds[c][0], bounds[c][1]
			acc := field.One
			for i := lo; i < hi; i++ {
				acc = field.Mul(acc, field.Sub(gamma, fingerprint(&log[i], alpha)))
				out[i] = acc
			}
			totals[c] = acc
		}
	}
	pool.do(local...)
	// Exclusive prefix of chunk totals, then rescale each chunk by
	// the product of everything before it.
	prefix := make([]field.Elem, len(bounds))
	acc := field.One
	for c := range bounds {
		prefix[c] = acc
		acc = field.Mul(acc, totals[c])
	}
	rescale := make([]func(), len(bounds))
	for c := range bounds {
		c := c
		rescale[c] = func() {
			lo, hi := bounds[c][0], bounds[c][1]
			p := prefix[c]
			if p == field.One {
				return
			}
			for i := lo; i < hi; i++ {
				out[i] = field.Mul(out[i], p)
			}
		}
	}
	pool.do(rescale...)
	return out
}
