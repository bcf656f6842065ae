package zkvm

import (
	"encoding/binary"
	"fmt"

	"zkflow/internal/field"
	"zkflow/internal/hashk"
	"zkflow/internal/merkle"
)

// Serialized sizes of committed leaves.
const (
	rowBytes  = 4 + 4*NumRegs + 4 + 4 + 4 // PC, regs, MemPtr, InPtr, JPtr
	memBytes  = 4 + 4 + 4 + 4 + 1         // Addr, Val, Seq, Step, IsWrite
	prodBytes = 8                         // one field element
	saltBytes = 16
	// saltPreBytes is the salt preimage seed || label || index.
	saltPreBytes = 32 + 1 + 8
	// maxLeafBytes bounds every committed leaf payload.
	maxLeafBytes = rowBytes
)

// Every salted leaf message 0x00 || salt || payload fits one
// hashk.Msg; this fails to compile if a leaf outgrows it.
const _ = uint(hashk.MaxMsg - (1 + saltBytes + maxLeafBytes))

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

// encodeRow serialises a trace row into a fresh buffer (used only for
// the ~k opened rows, re-encoded on demand).
func encodeRow(r *Row) []byte {
	b := make([]byte, rowBytes)
	encodeRowInto(b, r)
	return b
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

// encodeMemEntry serialises a memory-log entry into a fresh buffer
// (openings only).
func encodeMemEntry(e *MemEntry) []byte {
	b := make([]byte, memBytes)
	encodeMemEntryInto(b, e)
	return b
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

// encodeProd serialises a running-product element into a fresh buffer
// (openings only).
func encodeProd(p field.Elem) []byte {
	b := make([]byte, prodBytes)
	encodeProdInto(b, p)
	return b
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

// deriveSalt computes the per-leaf blinding salt. Each committed leaf
// is salted so that unopened leaves reveal nothing about the trace
// (hiding commitment under SHA-256).
func deriveSalt(seed *[32]byte, treeLabel byte, index int) [saltBytes]byte {
	m := saltMsg(seed, treeLabel)
	binary.LittleEndian.PutUint64(m.Bytes()[33:], uint64(index))
	h := hashk.Sum[[32]byte](&m)
	var salt [saltBytes]byte
	copy(salt[:], h[:saltBytes])
	return salt
}

// saltMsg returns the salt preimage seed || label || index of a tree
// with the index bytes still zero.
func saltMsg(seed *[32]byte, treeLabel byte) hashk.Msg {
	m := hashk.NewMsg(saltPreBytes)
	b := m.Bytes()
	copy(b, seed[:])
	b[32] = treeLabel
	return m
}

// saltedLeafHash is the committed hash of (salt || payload), hashed
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

// commitStream builds a salted Merkle tree over n leaves without ever
// materializing the leaf payload table: encode(i, dst) serialises row
// i into a per-goroutine scratch buffer and the (salt || payload) leaf
// hash streams straight out of it. This fuses the old trace_encode
// stage into the commit — the only payload bytes that outlive the call
// are the ~k Fiat–Shamir-opened rows, re-encoded on demand by the
// opening path.
//
// Leaf hashing and the tree's internal levels both fan out in
// contiguous chunks over the pool it is handed, so a nested stage
// stays within its share of ProveOptions.Parallelism and a 1-worker
// pool hashes every leaf inline, in index order. Chunking is purely
// index-partitioned, so the tree is byte-identical at any pool width.
func commitStream(seed *[32]byte, label byte, n, leafBytes int, pool *workerPool, encode func(i int, dst []byte)) *merkle.Tree {
	return merkle.BuildLeavesParallel(n, pool.workers, func(hashes []merkle.Hash) {
		hashLeaves(seed, label, leafBytes, pool, hashes, encode)
	})
}

// hashLeaves fills hashes[i] with the salted leaf hash of row i,
// one contiguous chunk per pool worker.
func hashLeaves(seed *[32]byte, label byte, leafBytes int, pool *workerPool, hashes []merkle.Hash, encode func(i int, dst []byte)) {
	pool.forChunks(len(hashes), func(lo, hi int) {
		// Both hash inputs are padded once per chunk and patched per
		// row: the salt preimage (seed || label || index) only changes
		// in its index bytes, and the leaf message (0x00 || salt ||
		// payload) is encoded into in place. Rows go two per kernel
		// call, an odd last row alone. The digests are exactly
		// deriveSalt + saltedLeafHash — TestHashLeavesMatchesReference
		// pins the equivalence.
		var salt, leaf [2]hashk.Msg
		var s, l [2][]byte
		for k := range 2 {
			salt[k] = saltMsg(seed, label)
			leaf[k] = hashk.NewMsg(1 + saltBytes + leafBytes)
			s[k], l[k] = salt[k].Bytes(), leaf[k].Bytes()
			l[k][0] = hashk.LeafPrefix
		}
		i := lo
		for ; i+1 < hi; i += 2 {
			binary.LittleEndian.PutUint64(s[0][33:], uint64(i))
			binary.LittleEndian.PutUint64(s[1][33:], uint64(i+1))
			h0, h1 := hashk.Sum2[[32]byte](&salt[0], &salt[1])
			copy(l[0][1:1+saltBytes], h0[:saltBytes])
			copy(l[1][1:1+saltBytes], h1[:saltBytes])
			encode(i, l[0][1+saltBytes:])
			encode(i+1, l[1][1+saltBytes:])
			hashes[i], hashes[i+1] = hashk.Sum2[merkle.Hash](&leaf[0], &leaf[1])
		}
		if i < hi {
			binary.LittleEndian.PutUint64(s[0][33:], uint64(i))
			h := hashk.Sum[[32]byte](&salt[0])
			copy(l[0][1:1+saltBytes], h[:saltBytes])
			encode(i, l[0][1+saltBytes:])
			hashes[i] = hashk.Sum[merkle.Hash](&leaf[0])
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
