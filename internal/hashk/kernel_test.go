package hashk

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// randMsg returns a padded message of n random bytes.
func randMsg(rng *rand.Rand, n int) Msg {
	m := NewMsg(n)
	rng.Read(m.Bytes())
	return m
}

func TestNewMsgRejectsBadLength(t *testing.T) {
	for _, n := range []int{-1, MaxMsg + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMsg(%d) did not panic", n)
				}
			}()
			NewMsg(n)
		}()
	}
}

// TestSumMatchesStdlib checks Sum and both lanes of Sum2 against
// crypto/sha256 at every message length, with different random
// content in each lane.
func TestSumMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= MaxMsg; n++ {
		for rep := 0; rep < 4; rep++ {
			a, b := randMsg(rng, n), randMsg(rng, n)
			wantA, wantB := sha256.Sum256(a.Bytes()), sha256.Sum256(b.Bytes())
			if got := Sum[digest](&a); got != wantA {
				t.Fatalf("len %d: Sum = %x, want %x", n, got, wantA)
			}
			gotA, gotB := Sum2[digest](&a, &b)
			if gotA != wantA || gotB != wantB {
				t.Fatalf("len %d: Sum2 = %x, %x, want %x, %x", n, gotA, gotB, wantA, wantB)
			}
		}
	}
}

// TestMsgPatchInPlace re-hashes one padded message after patching it,
// as the commit loops do.
func TestMsgPatchInPlace(t *testing.T) {
	m := NewMsg(97)
	b := m.Bytes()
	if cap(b) != 97 {
		t.Fatalf("Bytes capacity %d, want 97", cap(b))
	}
	for i := 0; i < 3; i++ {
		b[5+i] = byte(i + 1)
		if got, want := Sum[digest](&m), sha256.Sum256(b); got != want {
			t.Fatalf("patch %d: Sum = %x, want %x", i, got, want)
		}
	}
}

func TestSum2RejectsUnequalLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sum2 of unequal lengths did not panic")
		}
	}()
	a, b := NewMsg(41), NewMsg(42)
	Sum2[digest](&a, &b)
}

// TestGeneratedAsmUpToDate reruns the generator and diffs its output
// against the committed assembly.
func TestGeneratedAsmUpToDate(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out := filepath.Join(t.TempDir(), "kernel_amd64.s")
	cmd := exec.Command(goTool, "run", "gen_kernel.go", "-out", out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gen_kernel.go: %v\n%s", err, b)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("kernel_amd64.s is stale: run go generate ./internal/hashk")
	}
}

// FuzzSum2 hashes two equal-length messages through Sum2 and compares
// each lane with crypto/sha256.
func FuzzSum2(f *testing.F) {
	f.Add([]byte("abc"), []byte("xyz"))
	f.Add(bytes.Repeat([]byte{1}, 55), bytes.Repeat([]byte{2}, 55))
	f.Add(bytes.Repeat([]byte{3}, 56), bytes.Repeat([]byte{4}, 56))
	f.Add(bytes.Repeat([]byte{7}, 119), bytes.Repeat([]byte{8}, 119))
	f.Add(bytes.Repeat([]byte{9}, 120), bytes.Repeat([]byte{10}, 120))
	f.Add(bytes.Repeat([]byte{11}, 405), bytes.Repeat([]byte{12}, 405))
	f.Add(bytes.Repeat([]byte{5}, MaxMsg), bytes.Repeat([]byte{6}, MaxMsg))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		n := min(len(x), len(y), MaxMsg)
		a, b := NewMsg(n), NewMsg(n)
		copy(a.Bytes(), x)
		copy(b.Bytes(), y)
		gotA, gotB := Sum2[digest](&a, &b)
		if wantA := sha256.Sum256(x[:n]); gotA != wantA {
			t.Fatalf("lane a: %x, want %x", gotA, wantA)
		}
		if wantB := sha256.Sum256(y[:n]); gotB != wantB {
			t.Fatalf("lane b: %x, want %x", gotB, wantB)
		}
	})
}

// sink keeps benchmarked results live.
var sink digest

// benchShapes are the committed message shapes: a packed product or
// boundary-image leaf, an internal node, a packed memory-log leaf and
// a packed execution-trace leaf.
var benchShapes = []int{49, 65, 85, 405}

func BenchmarkSum(b *testing.B) {
	for _, n := range benchShapes {
		m := NewMsg(n)
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.buf[1] = byte(i)
				sink = Sum[digest](&m)
			}
		})
	}
}

// BenchmarkSum2 reports ns per pair of hashes.
func BenchmarkSum2(b *testing.B) {
	for _, n := range benchShapes {
		x, y := NewMsg(n), NewMsg(n)
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.buf[1] = byte(i)
				sink, _ = Sum2[digest](&x, &y)
			}
		})
	}
}

func BenchmarkSum256(b *testing.B) {
	for _, n := range benchShapes {
		buf := make([]byte, n)
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf[1] = byte(i)
				sink = sha256.Sum256(buf)
			}
		})
	}
}
