package zkvm

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"zkflow/internal/field"
)

// parallelTestExecution builds a guest with a non-trivial trace —
// memory stores/loads, arithmetic, the SHA-256 precompile — so every
// committed table (exec rows, both memory orderings including the
// precompile's rows, running products) is populated.
func parallelTestExecution(t testing.TB, words int) *Execution {
	t.Helper()
	a := NewAssembler()
	a.Li(1, 0) // acc
	a.Li(4, 0) // addr cursor
	for i := 0; i < words; i++ {
		a.ReadInput(2)
		a.Sw(2, 4, 0)
		a.Lw(3, 4, 0)
		a.Add(1, 1, 3)
		a.Addi(4, 4, 1)
	}
	// Hash the first 16 stored words via the precompile into high
	// memory, then journal the first digest word and the sum.
	a.Li(5, 0)    // src addr
	a.Li(6, 16)   // len
	a.Li(7, 4096) // dst addr
	a.Hash(5, 6, 7)
	a.Lw(8, 7, 0)
	a.WriteJournal(8)
	a.WriteJournal(1)
	a.HaltCode(0)
	prog, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	input := make([]uint32, words)
	for i := range input {
		input[i] = uint32(i)*2654435761 + 12345
	}
	ex, err := Execute(prog, input, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestParallelProveDeterminism asserts the tentpole guarantee: for a
// fixed salt seed, the parallel prover emits receipts byte-for-byte
// identical to the fully serial prover at every pool width.
func TestParallelProveDeterminism(t *testing.T) {
	ex := parallelTestExecution(t, 96)
	seed := [32]byte{7: 1, 13: 0xee, 31: 9}

	serialOpts := ProveOptions{Checks: 12, Parallelism: 1}
	serial, err := proveExecutionSeeded(ex, serialOpts, &seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 4, 7, 8, 32} {
		opts := ProveOptions{Checks: 12, Parallelism: par}
		r, err := proveExecutionSeeded(ex, opts, &seed)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("parallelism %d: receipt differs from serial (%d vs %d bytes)", par, len(got), len(want))
		}
	}
	// The parallel receipt must still verify.
	if err := Verify(ex.Program, serial, VerifyOptions{}); err != nil {
		t.Fatalf("serial-seeded receipt does not verify: %v", err)
	}
}

// TestParallelismOneCommitsSerially pins Parallelism 1 as the serial
// path all the way down to leaf hashing: on a 1-worker pool,
// commitStream must encode every row inline, in index order, even
// when the host has more than one CPU to fan out to. Row 0 holds its
// encode open until another row is encoded (or a timeout passes), so
// a concurrent chunk cannot hide behind a lucky schedule.
func TestParallelismOneCommitsSerially(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 1024
	var (
		mu        sync.Mutex
		order     []int
		otherOnce sync.Once
		other     = make(chan struct{})
	)
	tree := commitStream(&[32]byte{3}, treeExec, n, prodBytes, newWorkerPool(1), func(i int, dst []byte) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		if i == 0 {
			select {
			case <-other:
			case <-time.After(50 * time.Millisecond):
			}
		} else {
			otherOnce.Do(func() { close(other) })
		}
		encodeProdInto(dst, field.New(uint64(i)))
	})
	defer tree.release()
	if len(order) != n {
		t.Fatalf("encode called %d times, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("encode call %d was for row %d: a 1-worker pool fanned out", i, got)
		}
	}
	// The serial tree is the tree every other width produces.
	wide := commitStream(&[32]byte{3}, treeExec, n, prodBytes, newWorkerPool(4), func(i int, dst []byte) {
		encodeProdInto(dst, field.New(uint64(i)))
	})
	defer wide.release()
	if tree.root() != wide.root() {
		t.Fatal("1-worker and 4-worker commits disagree")
	}
}

// TestParallelProveVerifies proves with default (GOMAXPROCS) parallelism
// through the public API and checks the receipt.
func TestParallelProveVerifies(t *testing.T) {
	ex := parallelTestExecution(t, 64)
	r, err := ProveExecution(ex, ProveOptions{Checks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ex.Program, r, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunningProductsParallelScan checks the three-phase prefix scan
// against the serial scan on widths that exercise uneven chunks.
func TestRunningProductsParallelScan(t *testing.T) {
	log := make([]MemEntry, 1037)
	for i := range log {
		log[i] = MemEntry{
			Addr:    uint32(i % 61),
			Val:     uint32(i * 7),
			Seq:     uint32(i),
			Step:    uint32(i * 3),
			IsWrite: i%3 == 0,
		}
	}
	alpha, gamma := field.New(12345), field.New(987654321)
	want := runningProducts(log, alpha, gamma, newWorkerPool(1))
	for _, w := range []int{2, 3, 5, 16, 1024} {
		got := runningProducts(log, alpha, gamma, newWorkerPool(w))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d: product[%d] = %v, want %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestWorkerPoolChunking checks forChunks covers [0,n) exactly once
// regardless of width.
func TestWorkerPoolChunking(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			seen := make([]int32, n)
			var mu chan struct{} = make(chan struct{}, 1)
			mu <- struct{}{}
			newWorkerPool(w).forChunks(n, func(lo, hi int) {
				<-mu
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu <- struct{}{}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, c)
				}
			}
		}
	}
}
