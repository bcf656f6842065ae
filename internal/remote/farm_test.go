package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"zkflow/internal/obs"
	"zkflow/internal/zkvm"
)

// loopProgram builds a guest whose run splits into several segments at
// the minimum segment size.
func loopProgram() (*zkvm.Program, []uint32) {
	a := zkvm.NewAssembler()
	a.ReadInput(2) // r2 = loop count
	a.Li(3, 0)
	a.Li(4, 0)
	a.Label("loop")
	a.Add(4, 4, 3)
	a.Sw(4, 3, 0)
	a.Addi(3, 3, 1)
	a.Bltu(3, 2, "loop")
	a.WriteJournal(4)
	a.HaltCode(0)
	return a.MustAssemble(), []uint32{60}
}

func farmOpts() zkvm.ProveOptions {
	return zkvm.ProveOptions{Checks: 4, SegmentCycles: 64, Parallelism: 1}
}

// testFarm starts a coordinator with a fast heartbeat on a loopback
// listener.
func testFarm(t *testing.T, reg *obs.Registry) *Coordinator {
	t.Helper()
	c := NewCoordinator(FarmConfig{
		HeartbeatEvery: 25 * time.Millisecond,
		HeartbeatMiss:  3,
		Metrics:        reg,
	})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startWorker runs a worker in the background, returning a cancel
// function and a WaitGroup-style done channel.
func startWorker(t *testing.T, addr string, cfg WorkerConfig) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, addr, cfg)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("worker did not shut down")
		}
	})
	return cancel
}

func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitForWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
}

func TestFarmWholeJobByteIdentical(t *testing.T) {
	c := testFarm(t, nil)
	startWorker(t, c.Addr(), WorkerConfig{Name: "w1", Capacity: 2})
	waitWorkers(t, c, 1)

	prog, input := loopProgram()
	opts := zkvm.ProveOptions{Checks: 4, Parallelism: 1}
	seed := [32]byte{3, 1, 4}
	got, err := c.ProveSeeded(context.Background(), prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := zkvm.ProveWithSeed(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := got.MarshalBinary()
	wb, _ := want.MarshalBinary()
	if !bytes.Equal(gb, wb) {
		t.Fatal("farm whole-job receipt differs from local prover")
	}
}

func TestFarmSegmentedByteIdenticalAtAnyWorkerCount(t *testing.T) {
	prog, input := loopProgram()
	opts := farmOpts()
	seed := [32]byte{7, 7, 7}
	golden, err := zkvm.ProveSegmentedWithSeed(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if golden.NumSegments() < 2 {
		t.Fatalf("want >=2 segments, got %d", golden.NumSegments())
	}
	wantBytes, _ := golden.MarshalBinary()

	for _, workers := range []int{1, 2, 4} {
		reg := obs.NewRegistry()
		c := testFarm(t, reg)
		for i := 0; i < workers; i++ {
			startWorker(t, c.Addr(), WorkerConfig{Capacity: 1})
		}
		waitWorkers(t, c, workers)
		got, err := c.ProveSeeded(context.Background(), prog, input, opts, seed)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gb, _ := got.MarshalBinary()
		if !bytes.Equal(gb, wantBytes) {
			t.Fatalf("workers=%d: farm composite differs from single-prover bytes", workers)
		}
		if n := reg.Counter("farm.results_ok").Value(); n != uint64(golden.NumSegments()) {
			t.Fatalf("workers=%d: %d results accepted, want %d", workers, n, golden.NumSegments())
		}
		c.Close()
	}
}

func TestFarmProveContextVerifies(t *testing.T) {
	c := testFarm(t, nil)
	startWorker(t, c.Addr(), WorkerConfig{Capacity: 2})
	waitWorkers(t, c, 1)

	prog, input := loopProgram()
	receipt, err := c.ProveContext(context.Background(), prog, input, farmOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvm.VerifyAny(prog, receipt, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if receipt.JournalWords()[0] != 1770 { // sum 0..59
		t.Fatalf("journal %v", receipt.JournalWords())
	}
}

func TestFarmGuestAbortSurfacesBeforeDispatch(t *testing.T) {
	reg := obs.NewRegistry()
	c := testFarm(t, reg)
	startWorker(t, c.Addr(), WorkerConfig{Capacity: 1})
	waitWorkers(t, c, 1)

	a := zkvm.NewAssembler()
	a.HaltCode(3)
	prog := a.MustAssemble()
	_, err := c.ProveSeeded(context.Background(), prog, nil, farmOpts(), [32]byte{1})
	var abort *zkvm.GuestAbortError
	if !errors.As(err, &abort) || abort.ExitCode != 3 {
		t.Fatalf("want GuestAbortError(3), got %v", err)
	}
	// The abort was caught at planning: no proving job ever dispatched.
	if n := reg.Counter("farm.jobs_dispatched").Value(); n != 0 {
		t.Fatalf("%d jobs dispatched for an aborting guest", n)
	}
}

func TestFarmCancelledContextUnblocks(t *testing.T) {
	c := testFarm(t, nil)
	// No workers: the job would queue forever.
	prog, input := loopProgram()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.ProveSeeded(ctx, prog, input, farmOpts(), [32]byte{1})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestFarmCloseFailsPendingJobs(t *testing.T) {
	c := testFarm(t, nil)
	prog, input := loopProgram()
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := c.ProveSeeded(context.Background(), prog, input, farmOpts(), [32]byte{1})
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	wg.Wait()
	if err := <-errCh; !errors.Is(err, ErrFarmClosed) {
		t.Fatalf("want ErrFarmClosed, got %v", err)
	}
}

func TestFarmCapacityAwareDispatchAndSteals(t *testing.T) {
	reg := obs.NewRegistry()
	c := testFarm(t, reg)
	// One slow-start: jobs planned while only the first worker is
	// registered are homed to it; a second, larger worker then joins
	// and pulls most of them — those executions count as steals.
	blocked := make(chan struct{})
	var once sync.Once
	slowProve := func(ctx context.Context, job *WorkerJob) ([]byte, error) {
		once.Do(func() { close(blocked) })
		<-ctx.Done() // never finishes
		return nil, ctx.Err()
	}
	cancelSlow := startWorker(t, c.Addr(), WorkerConfig{Name: "slow", Capacity: 1, Prove: slowProve})
	waitWorkers(t, c, 1)

	prog, input := loopProgram()
	opts := farmOpts()
	seed := [32]byte{2}
	golden, err := zkvm.ProveSegmentedWithSeed(prog, input, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan error, 1)
	var farmBytes []byte
	go func() {
		r, err := c.ProveSeeded(context.Background(), prog, input, opts, seed)
		if err == nil {
			farmBytes, _ = r.MarshalBinary()
		}
		resCh <- err
	}()
	<-blocked // slow worker has swallowed a job; the rest are homed to it in queue
	startWorker(t, c.Addr(), WorkerConfig{Name: "fast", Capacity: 4})
	waitWorkers(t, c, 2)

	// The fast worker steals the queued segments, but the slow worker
	// holds one in-flight segment forever. Kill it — its connection
	// closes mid-job and the coordinator must requeue that segment to
	// the surviving worker.
	cancelSlow()
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
	want, _ := golden.MarshalBinary()
	if !bytes.Equal(farmBytes, want) {
		t.Fatal("farm composite differs after steal + failover")
	}
	if reg.Counter("farm.steals").Value() == 0 {
		t.Error("no steals recorded")
	}
	if reg.Counter("farm.jobs_requeued").Value() == 0 {
		t.Error("no requeues recorded")
	}
}

// TestFarmMetricNamesBounded: worker churn must not grow the metrics
// registry. Fifty hello/disconnect cycles — unnamed workers, which the
// coordinator numbers from a counter that only rises, and named ones
// with names chosen by the peer — leave the set of metric names
// exactly as the coordinator registered it.
func TestFarmMetricNamesBounded(t *testing.T) {
	reg := obs.NewRegistry()
	c := testFarm(t, reg)
	names := func() map[string]bool {
		s := reg.Snapshot()
		out := make(map[string]bool)
		for n := range s.Counters {
			out["c:"+n] = true
		}
		for n := range s.Gauges {
			out["g:"+n] = true
		}
		for n := range s.Histograms {
			out["h:"+n] = true
		}
		return out
	}
	before := names()
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		if i%2 == 1 {
			name = fmt.Sprintf("peer-%d", i)
		}
		if err := writeFrame(conn, frameHello, encodeHello(helloMsg{Name: name, Capacity: 1})); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := readFrame(conn); err != nil || typ != frameWelcome {
			t.Fatalf("cycle %d: no welcome (frame %#x, err %v)", i, typ, err)
		}
		conn.Close()
		deadline := time.Now().Add(5 * time.Second)
		for c.Workers() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: disconnected worker still registered", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	after := names()
	for n := range after {
		if !before[n] {
			t.Errorf("worker churn added metric %q", n)
		}
	}
	for n := range before {
		if !after[n] {
			t.Errorf("worker churn removed metric %q", n)
		}
	}
	if got := reg.Counter("farm.workers_dead").Value(); got != 50 {
		t.Fatalf("farm.workers_dead = %d, want 50", got)
	}
}
