package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"zkflow/internal/core"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/obs"
	"zkflow/internal/router"
	"zkflow/internal/store"
	"zkflow/internal/trafficgen"
	"zkflow/internal/zkvm"
)

// oneWorkerFarm starts an in-process coordinator with one local
// worker: the smallest off-path deployment.
func oneWorkerFarm(t *testing.T, reg *obs.Registry) *Coordinator {
	t.Helper()
	c := testFarm(t, reg)
	startWorker(t, c.Addr(), WorkerConfig{Name: "w1", Capacity: 2})
	waitWorkers(t, c, 1)
	return c
}

// simpleProgram journals the sum of two input words.
func simpleProgram() *zkvm.Program {
	a := zkvm.NewAssembler()
	a.ReadInput(zkvm.R2)
	a.ReadInput(zkvm.R3)
	a.Add(zkvm.R4, zkvm.R2, zkvm.R3)
	a.WriteJournal(zkvm.R4)
	a.HaltCode(0)
	return a.MustAssemble()
}

func TestRemoteProveRoundTrip(t *testing.T) {
	c := oneWorkerFarm(t, nil)
	prog := simpleProgram()
	receipt, err := c.Prove(prog, []uint32{20, 22}, zkvm.ProveOptions{Checks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := zkvm.VerifyAny(prog, receipt, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if receipt.JournalWords()[0] != 42 {
		t.Fatalf("journal %v", receipt.JournalWords())
	}
}

func TestRemoteSegmentedProve(t *testing.T) {
	c := oneWorkerFarm(t, nil)
	prog := simpleProgram()
	receipt, err := c.Prove(prog, []uint32{20, 22}, zkvm.ProveOptions{Checks: 6, SegmentCycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := receipt.(*zkvm.CompositeReceipt)
	if !ok {
		t.Fatalf("farm returned %T, want composite", receipt)
	}
	if err := zkvm.VerifyComposite(prog, comp, zkvm.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if comp.JournalWords()[0] != 42 {
		t.Fatalf("journal %v", comp.JournalWords())
	}
}

func TestRemoteGuestAbortSurfaces(t *testing.T) {
	c := oneWorkerFarm(t, nil)
	a := zkvm.NewAssembler()
	a.HaltCode(3)
	if _, err := c.Prove(a.MustAssemble(), nil, zkvm.ProveOptions{Checks: 4}); err == nil {
		t.Fatal("aborted guest produced a receipt")
	}
}

func TestRemoteTrapSurfaces(t *testing.T) {
	c := oneWorkerFarm(t, nil)
	a := zkvm.NewAssembler()
	a.ReadInput(zkvm.R2) // no input: traps
	a.HaltCode(0)
	if _, err := c.Prove(a.MustAssemble(), nil, zkvm.ProveOptions{Checks: 4}); !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	prog := simpleProgram()
	input := []uint32{1, 2, 3}
	opts := zkvm.ProveOptions{Checks: 9, SegmentCycles: 4096}
	p2, in2, o2, err := DecodeRequest(EncodeRequest(prog, input, opts))
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() != prog.ID() {
		t.Fatal("program lost")
	}
	if len(in2) != 3 || in2[2] != 3 {
		t.Fatal("input lost")
	}
	if o2.Checks != 9 || o2.SegmentCycles != 4096 {
		t.Fatalf("options lost: %+v", o2)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("tiny"), make([]byte, 40)} {
		if _, _, _, err := DecodeRequest(data); err == nil {
			t.Fatalf("accepted %d bytes of garbage", len(data))
		}
	}
	good := EncodeRequest(simpleProgram(), []uint32{1}, zkvm.ProveOptions{})
	if _, _, _, err := DecodeRequest(good[:len(good)-2]); err == nil {
		t.Fatal("truncated request accepted")
	}
}

// TestDecodeRequestRejectsRetiredFrames: requests under the retired
// "zkrw" and "zkw2" magics are refused, even when the rest of the
// frame would parse.
func TestDecodeRequestRejectsRetiredFrames(t *testing.T) {
	for _, magic := range []uint32{0x7a6b7277, 0x7a6b7732} {
		req := EncodeRequest(simpleProgram(), []uint32{7}, zkvm.ProveOptions{Checks: 9})
		binary.LittleEndian.PutUint32(req, magic)
		if _, _, _, err := DecodeRequest(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("magic %#x: got %v, want ErrBadRequest", magic, err)
		}
	}
}

// TestOffPathAggregationPipeline is the full §7 scenario: the
// operator's pipelined prover dispatches all proving to an off-path
// farm worker; the auditor notices nothing.
func TestOffPathAggregationPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	c := oneWorkerFarm(t, reg)
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 9, NumFlows: 24, Routers: 2}, st, lg)
	if err := sim.RunEpochs(context.Background(), 0, 2, 8); err != nil {
		t.Fatal(err)
	}
	prover := core.NewProver(st, lg, core.Options{Checks: 6, PipelineDepth: 2, Farm: c})
	results, err := prover.AggregateEpochs([]uint64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	verifier := core.NewVerifier(lg)
	for _, res := range results {
		if _, err := verifier.VerifyAggregation(res.Receipt); err != nil {
			t.Fatalf("verify %d: %v", res.Epoch, err)
		}
	}
	qr, err := prover.Query("SELECT SUM(packets) FROM clogs;")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifier.VerifyQuery(qr.SQL, qr.Receipt); err != nil {
		t.Fatal(err)
	}
	// Two rounds and one query, each one whole job on the worker.
	if n := reg.Counter("farm.results_ok").Value(); n != 3 {
		t.Fatalf("farm proved %d jobs, want 3", n)
	}
}

// TestOffPathTamperStillAborts: tampered telemetry must fail proving
// even through the farm, with no receipt and no round recorded.
func TestOffPathTamperStillAborts(t *testing.T) {
	c := oneWorkerFarm(t, nil)
	st := store.Open(0)
	lg := ledger.New()
	sim := router.NewSim(trafficgen.Config{Seed: 10, NumFlows: 16, Routers: 2}, st, lg)
	if _, err := sim.RunEpoch(context.Background(), 0, 6); err != nil {
		t.Fatal(err)
	}
	st.Append(0, 0, []netflow.Record{{Key: netflow.FlowKey{SrcIP: 1}, Packets: 1, StartUnix: 1, EndUnix: 2}})
	prover := core.NewProver(st, lg, core.Options{Checks: 6, Farm: c})
	res, err := prover.AggregateEpoch(0)
	if err == nil || res != nil {
		t.Fatalf("tampered store proven off-path: res=%v err=%v", res, err)
	}
	if h := prover.History(); len(h) != 0 {
		t.Fatalf("tampered epoch left %d rounds in the prover history", len(h))
	}
}
