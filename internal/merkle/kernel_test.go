package merkle

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// refTree is the pre-kernel tree builder (per-level allocations, every
// padding node hashed) kept as the identity oracle for the arena +
// padding-table build.
func refTree(leafHashes []Hash) [][]Hash {
	n := len(leafHashes)
	size := 1
	for size < n {
		size <<= 1
	}
	level := make([]Hash, size)
	copy(level, leafHashes)
	for i := n; i < size; i++ {
		level[i] = emptyHash
	}
	levels := [][]Hash{level}
	for len(level) > 1 {
		next := make([]Hash, len(level)/2)
		for i := range next {
			h := sha256.New()
			h.Write([]byte{0x01})
			h.Write(level[2*i][:])
			h.Write(level[2*i+1][:])
			h.Sum(next[i][:0])
		}
		levels = append(levels, next)
		level = next
	}
	return levels
}

// TestArenaBuildMatchesReference pins that the flat-arena build with
// padding-subtree skipping is node-for-node identical to hashing
// every node the old way, across awkward leaf counts (just above a
// power of two maximizes skipped padding subtrees).
func TestArenaBuildMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 9, 17, 33, 100, 129, 1000, 1025} {
		hs := make([]Hash, n)
		for i := range hs {
			hs[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8), 0x7f})
		}
		got := BuildHashesParallel(hs, 1)
		want := refTree(hs)
		if len(got.levels) != len(want) {
			t.Fatalf("n=%d: %d levels, want %d", n, len(got.levels), len(want))
		}
		for lvl := range want {
			for i := range want[lvl] {
				if got.levels[lvl][i] != want[lvl][i] {
					t.Fatalf("n=%d: node (%d,%d) differs", n, lvl, i)
				}
			}
		}
	}
}

// TestPaddingHashTable checks the precomputed padding roots are the
// NodeHash fixpoint of the empty leaf.
func TestPaddingHashTable(t *testing.T) {
	if PaddingHash(0) != emptyHash {
		t.Fatal("PaddingHash(0) is not the empty leaf hash")
	}
	h := emptyHash
	for l := 1; l <= 20; l++ {
		h = NodeHash(h, h)
		if PaddingHash(l) != h {
			t.Fatalf("PaddingHash(%d) diverges from iterated NodeHash", l)
		}
	}
}

// TestHashZeroAllocs gates the leaf/node kernels: committed-table leaf
// sizes must hash without touching the allocator.
func TestHashZeroAllocs(t *testing.T) {
	data := make([]byte, 405) // packed, salted exec-row leaf size
	var l, r Hash
	if allocs := testing.AllocsPerRun(100, func() { _ = LeafHash(data) }); allocs != 0 {
		t.Errorf("LeafHash allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = NodeHash(l, r) }); allocs != 0 {
		t.Errorf("NodeHash allocates %v per run, want 0", allocs)
	}
}

// TestBuildHashesConstantAllocs gates the arena build: a whole tree
// costs a fixed handful of allocations (arena, level index, tree),
// not O(leaves) or O(levels).
func TestBuildHashesConstantAllocs(t *testing.T) {
	hs := make([]Hash, 4096)
	for i := range hs {
		hs[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	}
	allocs := testing.AllocsPerRun(10, func() { _ = BuildHashesParallel(hs, 1) })
	if allocs > 4 {
		t.Fatalf("serial 4096-leaf build allocates %v per run, want <= 4", allocs)
	}
}

// TestReleasedArenaReuse pins the Release contract: a build on a
// dirty recycled arena (larger previous tree, arbitrary stale nodes)
// is node-for-node identical to a fresh build, across sizes that
// exercise both the padding-fill and real-node paths.
func TestReleasedArenaReuse(t *testing.T) {
	// Seed the pool with a large dirty arena.
	big := make([]Hash, 2048)
	for i := range big {
		big[i] = sha256.Sum256([]byte{byte(i), 0xee})
	}
	BuildHashesParallel(big, 1).Release()

	for _, n := range []int{1, 2, 5, 100, 129, 1000, 1025} {
		hs := make([]Hash, n)
		for i := range hs {
			hs[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(n)})
		}
		got := BuildHashesParallel(hs, 1) // likely reuses the dirty arena
		want := refTree(hs)
		for lvl := range want {
			for i := range want[lvl] {
				if got.levels[lvl][i] != want[lvl][i] {
					t.Fatalf("n=%d: node (%d,%d) differs on recycled arena", n, lvl, i)
				}
			}
		}
		got.Release()
		got.Release() // double release is a no-op
	}
}

func TestHashStringIsHex(t *testing.T) {
	var h Hash
	for i := range h {
		h[i] = byte(i)
	}
	if got, want := h.String(), "0001020304050607"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%q", "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"); string(b) != want {
		t.Fatalf("MarshalJSON = %s, want %s", b, want)
	}
	var back Hash
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatal("marshal/unmarshal round trip changed the hash")
	}
}

func BenchmarkBuildHashes(b *testing.B) {
	for _, n := range []int{4096, 1 << 15} {
		hs := make([]Hash, n)
		for i := range hs {
			hs[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		}
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = BuildHashesParallel(hs, 1)
			}
		})
	}
}
