package zkvm

import (
	"testing"

	"zkflow/internal/merkle"
)

// TestCommitStreamConstantAllocs is the allocation-regression gate for
// the fused table commit: committing a whole 4096-row table must cost
// a small constant number of allocations (leaf-hash slice, tree arena,
// tree bookkeeping, a couple of closures) — not O(rows). Before the
// fused pipeline this path allocated one payload buffer plus one
// salted concat buffer per row.
func TestCommitStreamConstantAllocs(t *testing.T) {
	const n = 4096
	rows := make([]Row, n)
	for i := range rows {
		rows[i].PC = uint32(i)
		rows[i].Regs[1] = uint32(i * 3)
	}
	seed := &[32]byte{42}
	pool := newWorkerPool(1)
	var tree *merkle.Tree
	allocs := testing.AllocsPerRun(5, func() {
		tree = commitStream(seed, treeExec, n, rowBytes, pool,
			func(i int, dst []byte) { encodeRowInto(dst, &rows[i]) })
	})
	if allocs > 8 {
		t.Fatalf("serial %d-row commit allocates %v per run, want <= 8 (constant, not O(rows))", n, allocs)
	}

	// The streamed tree must be leaf-for-leaf what the unfused
	// formulation produces.
	hashes := make([]merkle.Hash, n)
	for i := range hashes {
		hashes[i] = saltedLeafHash(deriveSalt(seed, treeExec, i), encodeRow(&rows[i]))
	}
	want := merkle.BuildHashes(hashes)
	if tree.Root() != want.Root() {
		t.Fatal("fused commit root differs from unfused reference")
	}
}

// TestSaltedLeafHashZeroAllocs gates the per-leaf hot path.
func TestSaltedLeafHashZeroAllocs(t *testing.T) {
	seed := &[32]byte{7}
	payload := make([]byte, rowBytes)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = saltedLeafHash(deriveSalt(seed, treeExec, 17), payload)
	}); allocs != 0 {
		t.Fatalf("salted leaf hash allocates %v per run, want 0", allocs)
	}
}
