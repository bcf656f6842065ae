package zkvm

import (
	"crypto/cipher"
	"testing"

	"zkflow/internal/merkle"
)

// TestCommitStreamConstantAllocs is the allocation-regression gate for
// the fused table commit: committing a whole 4097-row table must cost
// a small constant number of allocations (tree arena and bookkeeping,
// the table, the salt cipher, the CTR stream and one scratch block per
// chunk, a couple of closures) — not O(rows).
func TestCommitStreamConstantAllocs(t *testing.T) {
	const n = 4097 // a partial last group
	rows := make([]Row, n)
	for i := range rows {
		rows[i].PC = uint32(i)
		rows[i].Regs[1] = uint32(i * 3)
	}
	seed := &[32]byte{42}
	pool := newWorkerPool(1)
	enc := func(i int, dst []byte) { encodeRowInto(dst, &rows[i]) }
	var tb *table
	allocs := testing.AllocsPerRun(5, func() {
		tb = commitStream(seed, treeExec, n, rowBytes, pool, enc)
	})
	if allocs > 8 {
		t.Fatalf("serial %d-row commit allocates %v per run, want <= 8 (constant, not O(rows))", n, allocs)
	}

	// The streamed tree must be leaf-for-leaf what the unfused
	// formulation produces: each group encoded on its own, salted with
	// deriveSalt and hashed.
	if tb.root() != refPackedTree(seed, treeExec, n, rowBytes, enc).Root() {
		t.Fatal("fused commit root differs from unfused reference")
	}
}

// refPackedTree is the reference commitment of an n-entry table: leaf g
// is saltedLeafHash(deriveSalt(g), entries 4g..4g+3 with zero slots
// past n), built group by group.
func refPackedTree(seed *[32]byte, label byte, n, width int, enc func(i int, dst []byte)) *merkle.Tree {
	return merkle.BuildHashes(refLeafHashes(seed, label, n, width, enc))
}

func refLeafHashes(seed *[32]byte, label byte, n, width int, enc func(i int, dst []byte)) []merkle.Hash {
	blk := saltCipher(seed)
	hashes := make([]merkle.Hash, (n+rowsPerLeaf-1)/rowsPerLeaf)
	for g := range hashes {
		group := make([]byte, rowsPerLeaf*width)
		for j := range rowsPerLeaf {
			if i := g*rowsPerLeaf + j; i < n {
				enc(i, group[j*width:(j+1)*width])
			}
		}
		hashes[g] = saltedLeafHash(saltOf(blk, label, g), group)
	}
	return hashes
}

// saltOf is deriveSalt returning the salt by value.
func saltOf(blk cipher.Block, label byte, g int) (salt [saltBytes]byte) {
	deriveSalt(&salt, blk, label, g)
	return salt
}

// TestSaltedLeafHashZeroAllocs gates the per-leaf hot path — salt
// derivation plus the hash of every packed leaf shape (execution rows,
// memory entries, products and boundary images) — as the opener and
// the verifier run it once per opening.
func TestSaltedLeafHashZeroAllocs(t *testing.T) {
	blk := saltCipher(&[32]byte{7})
	salt := new([saltBytes]byte)
	for _, width := range []int{rowBytes, memBytes, prodBytes, imgBytes} {
		group := make([]byte, rowsPerLeaf*width)
		if allocs := testing.AllocsPerRun(100, func() {
			deriveSalt(salt, blk, treeExec, 17)
			_ = saltedLeafHash(*salt, group)
		}); allocs != 0 {
			t.Fatalf("width %d: salted leaf hash allocates %v per run, want 0", width, allocs)
		}
	}
}
