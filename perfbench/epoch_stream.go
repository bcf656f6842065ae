package main

import (
	"context"
	"fmt"
	"math/rand"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/ingest"
	"zkflow/internal/lightsync"
	"zkflow/internal/netflow"
	"zkflow/internal/zkvm"
)

// epochStreamConfig sizes the epoch_stream workload.
type epochStreamConfig struct {
	flowsPerRouter   int // flow population per router; the CLog plateau is routers× this
	recordsPerRouter int // Zipf records per router per epoch
	perPacket        int // records per v9 datagram
}

// epochStreamDefault is the paper's 1000-record point: 4 routers × 250
// records per epoch over a 1000-flow CLog.
var epochStreamDefault = epochStreamConfig{flowsPerRouter: 250, recordsPerRouter: 250, perPacket: 30}

// epochStream is the operator write path, end to end: each epoch's
// datagrams go through ingest, the epoch is sealed, aggregated under a
// zkVM proof, published, and verified by a light client over HTTP.
type epochStream struct {
	cfg     epochStreamConfig
	op      *operator
	traffic traffic
	packets *rand.Rand
	samples *rand.Rand
	light   *lightsync.State
	client  *api.Client
}

func newEpochStream(b *bench, cfg epochStreamConfig) (*epochStream, error) {
	op, err := newOperator(b)
	if err != nil {
		return nil, err
	}
	w := &epochStream{
		cfg: cfg, op: op,
		traffic: newTraffic(b.seed, cfg.flowsPerRouter, 0.02),
		packets: b.rng(1),
		samples: b.rng(2),
	}
	// Bring the CLog to its plateau: one sweep epoch touches every flow.
	batches := w.traffic.sweep(0)
	if err := op.runEpoch(packetize(w.packets, batches, cfg.perPacket, cfg.perPacket), batches); err != nil {
		op.close()
		return nil, err
	}
	cp0, err := op.lg.CheckpointByEpoch(0)
	if err != nil {
		op.close()
		return nil, err
	}
	if w.light, err = lightsync.Pin(op.http.URL, cp0); err != nil {
		op.close()
		return nil, err
	}
	w.client = op.client(api.WithCache())
	return w, nil
}

func runEpochStream(b *bench, cfg epochStreamConfig) error {
	w, err := timeSetup(b, func() (*epochStream, error) { return newEpochStream(b, cfg) },
		func(w *epochStream) { w.op.close() })
	if err != nil {
		return err
	}
	tr := b.tr
	ctx := context.Background()
	b.start()
	for i := 0; b.running(i); i++ {
		epoch := uint64(i + 1)
		batches := w.traffic.epoch(epoch, cfg.recordsPerRouter)
		dgrams := packetize(w.packets, batches, cfg.perPacket, cfg.perPacket)
		syncOpts := lightsync.Options{Samples: 1, Seed: w.samples.Int63() | 1, MinChecks: zkvm.DefaultChecks}
		tr.startOp(i, b.traced(i))
		drop0 := w.op.pipe.Stats().Dropped()

		clk := startClock()
		root := tr.begin("epoch")
		sp := tr.begin("ingest.inject")
		for _, d := range dgrams {
			w.op.pipe.Inject(d)
		}
		tr.end(sp)
		sp = tr.begin("ingest.seal")
		seal := w.op.pipe.Seal()
		tr.end(sp)
		sp = tr.begin("core.aggregate")
		res, err := w.op.prover.AggregateEpoch(seal.Epoch)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("api.publish")
			err = w.op.srv.AddAggregationResult(res)
			tr.end(sp)
		}
		var rep *lightsync.Report
		if err == nil {
			sp = tr.begin("lightsync.sync")
			rep, err = lightsync.Sync(ctx, w.client, w.light, syncOpts)
			tr.end(sp)
		}
		tr.end(root)
		spent := clk.cost()

		if err == nil {
			err = w.check(seal, res, i+1, batches, rep)
		}
		tr.note("ingest.dropped", float64(w.op.pipe.Stats().Dropped()-drop0))
		if err == nil && b.traced(i) {
			tr.note("records", float64(countRecords(batches)))
			tr.note("datagrams", float64(len(dgrams)))
			tr.note("light_syncs", 1)
			tr.note("zkvm.receipt_kb", float64(res.Receipt.(*zkvm.Receipt).Size())/1024)
		}
		if err != nil {
			err = fmt.Errorf("epoch %d: %w", epoch, err)
		}
		b.done(i, spent, true, err)
	}
	b.report = append(b.report,
		named{"epoch_e2e_ms_p50", "ms", b.quantile(0.5, wall)},
		named{"e2e_records_per_s", "1/s", b.rate(wall) * float64(cfg.recordsPerRouter*routers)},
	)
	return w.op.finish()
}

// check holds one epoch to the reference: every record sealed, the
// proven root equal to the reference CLog's, and a light client that
// advanced to the epoch by verifying its round.
func (w *epochStream) check(seal ingest.Seal, res *core.AggregationResult, round int, batches [][]netflow.Record, rep *lightsync.Report) error {
	if err := w.op.checkSeal(seal, batches); err != nil {
		return err
	}
	if err := w.op.checkRound(res, batches); err != nil {
		return err
	}
	if rep.To.Epoch != seal.Epoch || len(rep.SampledRounds) != 1 || rep.SampledRounds[0] != round {
		return fmt.Errorf("light client reached epoch %d sampling rounds %v, want epoch %d round %d",
			rep.To.Epoch, rep.SampledRounds, seal.Epoch, round)
	}
	return nil
}
