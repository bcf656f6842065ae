package zkvm

import (
	"runtime"
	"sync"
)

// workerPool bounds prover-side concurrency. A pool of size 1 runs
// every task inline in submission order, so the serial path is the
// degenerate case of the parallel one — the determinism tests compare
// the two byte-for-byte. The width is injectable (ProveOptions.
// Parallelism) so tests can pin any value; nested stages split the
// width with split() so the total goroutine fan-out stays bounded by
// roughly the pool width.
type workerPool struct {
	workers int
}

// newWorkerPool creates a pool of n workers (n<=0 means GOMAXPROCS).
func newWorkerPool(n int) *workerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return &workerPool{workers: n}
}

// split returns a sub-pool sized for one of k sibling tasks running
// concurrently, so k siblings together stay within the parent width.
func (p *workerPool) split(k int) *workerPool {
	w := p.workers / k
	if w < 1 {
		w = 1
	}
	return &workerPool{workers: w}
}

// do runs the tasks concurrently and waits for all of them. With one
// worker the tasks run inline in submission order.
func (p *workerPool) do(tasks ...func()) {
	if p.workers == 1 || len(tasks) == 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(t func()) {
			defer wg.Done()
			t()
		}(t)
	}
	wg.Wait()
}

// forChunks splits [0,n) into one contiguous chunk per worker and
// runs fn over the chunks concurrently. Chunk boundaries depend only
// on (n, workers), never on scheduling, so any write pattern indexed
// by position is deterministic.
func (p *workerPool) forChunks(n int, fn func(lo, hi int)) {
	if p.workers == 1 || n < 2*p.workers {
		fn(0, n)
		return
	}
	chunk := (n + p.workers - 1) / p.workers
	tasks := make([]func(), 0, p.workers)
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, lo+chunk
		if hi > n {
			hi = n
		}
		tasks = append(tasks, func() { fn(lo, hi) })
	}
	p.do(tasks...)
}
