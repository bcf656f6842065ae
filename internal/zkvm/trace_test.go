package zkvm

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"zkflow/internal/merkle"
)

// refSortedMemLog is the comparison-sort formulation sortedMemLog
// must reproduce.
func refSortedMemLog(log []MemEntry) []MemEntry {
	out := slices.Clone(log)
	slices.SortFunc(out, func(a, b MemEntry) int {
		if a.Addr != b.Addr {
			return cmp.Compare(a.Addr, b.Addr)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return out
}

func randMemLog(rng *rand.Rand, n int, addrs uint32, shuffled bool) []MemEntry {
	log := make([]MemEntry, n)
	for i := range log {
		log[i] = MemEntry{
			Addr:    rng.Uint32() % addrs,
			Val:     rng.Uint32(),
			Seq:     uint32(i),
			Step:    uint32(i / 2),
			IsWrite: rng.Intn(2) == 0,
		}
	}
	if shuffled {
		rng.Shuffle(n, func(i, j int) { log[i], log[j] = log[j], log[i] })
	}
	return log
}

// TestSortedMemLogMatchesReference pins the radix sort to the
// comparison sort on every log shape the prover sees and a few it
// does not: program-order and shuffled random logs over narrow and
// full address ranges, empty and 1-entry logs, a single-address log,
// and the import-headed logs of a segmented run.
func TestSortedMemLogMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logs := map[string][]MemEntry{
		"empty":    {},
		"one":      {{Addr: 9, Val: 1, Seq: 0}},
		"sameAddr": randMemLog(rng, 1000, 1, false),
	}
	for _, n := range []int{2, 255, 257, 5000} {
		for _, addrs := range []uint32{16, 1 << 12, 1<<32 - 1} {
			logs[fmt.Sprintf("random/n=%d/addrs=%d", n, addrs)] = randMemLog(rng, n, addrs, false)
			logs[fmt.Sprintf("shuffled/n=%d/addrs=%d", n, addrs)] = randMemLog(rng, n, addrs, true)
		}
	}
	// Seq values that differ in their high bytes.
	wide := randMemLog(rng, 3000, 64, false)
	for i := range wide {
		wide[i].Seq = uint32(i) * 0x01010101
	}
	logs["wideSeq"] = wide
	segs, err := executeSegmented(segTestProgram(t), []uint32{600, 5}, ExecOptions{}, minSegmentCycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected a segmented run, got %d segment(s)", len(segs))
	}
	for i, s := range segs {
		logs[fmt.Sprintf("segment%d", i)] = s.ex.MemLog
	}
	for name, log := range logs {
		orig := slices.Clone(log)
		got := sortedMemLog(log)
		if want := refSortedMemLog(log); !slices.Equal(got, want) {
			t.Errorf("%s: radix order differs from the comparison sort", name)
		}
		if !slices.Equal(log, orig) {
			t.Errorf("%s: input log was modified", name)
		}
		putMemSlab(got)
	}
}

// TestHashLeavesMatchesReference checks the keystream-salted,
// two-lane leaf loop against deriveSalt + saltedLeafHash group by
// group, for full and partial last groups, odd and even leaf counts
// and the chunk edges of every pool width from 1 to 7.
func TestHashLeavesMatchesReference(t *testing.T) {
	seed := &[32]byte{0xc3, 17: 0x5a}
	for _, width := range []int{prodBytes, memBytes, rowBytes} {
		for _, n := range []int{1, 2, 3, 4, 5, 13, 14, 29, 64, 1025} {
			want := refLeafHashes(seed, treeMemSort, n, width, fillLeaf)
			tb := &table{salts: saltCipher(seed), label: treeMemSort, n: n, width: width, enc: fillLeaf}
			for w := 1; w <= 7; w++ {
				got := make([]merkle.Hash, numLeaves(n))
				tb.hashLeaves(newWorkerPool(w), got)
				if !slices.Equal(got, want) {
					t.Fatalf("width=%d n=%d pool=%d: leaf hashes differ from reference", width, n, w)
				}
			}
		}
	}
}

// fillLeaf encodes a payload that differs per row and per byte.
func fillLeaf(i int, dst []byte) {
	for j := range dst {
		dst[j] = byte(i*31 + j)
	}
}

func BenchmarkSortedMemLog(b *testing.B) {
	log := randMemLog(rand.New(rand.NewSource(1)), 200_000, 1<<14, false)
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			putMemSlab(sortedMemLog(log))
		}
	})
	b.Run("slices.SortFunc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = refSortedMemLog(log)
		}
	})
}
