package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"zkflow/internal/ingest"
	"zkflow/internal/ledger"
	"zkflow/internal/merkle"
	"zkflow/internal/netflow"
	"zkflow/internal/obs"
	"zkflow/internal/router"
	"zkflow/internal/store"
)

// ingestFloodConfig sizes the ingest_flood workload.
type ingestFloodConfig struct {
	flowsPerRouter  int
	recordsPerEpoch int
	minPer, maxPer  int // records per v9 datagram, drawn uniformly
}

// ingestFloodDefault runs 100k-record epochs from 4 routers.
var ingestFloodDefault = ingestFloodConfig{flowsPerRouter: 4096, recordsPerEpoch: 100_000, minPer: 1, maxPer: 30}

const (
	// floodRetention is the store epochs ingest_flood keeps (zkflowd
	// keeps 64): at 100k records an epoch it bounds memory to ~20 MB.
	floodRetention = 4
	// floodQueueDepth sizes the shard queues to hold a whole epoch of
	// one router's datagrams (~1.6k; the default is 1024). The
	// in-process injector has no socket buffer to pace it, and when the
	// host stalls a shard worker the default queue turns that lag into
	// queue_full drops, which this workload counts as failures.
	floodQueueDepth = 4096
)

// ingestFlood is the collector with no proving: one injector feeding
// pre-encoded v9 datagrams, each epoch sealed (store.Append,
// ledger.Publish, SealEpoch) and read back as the prover's witness.
type ingestFlood struct {
	cfg     ingestFloodConfig
	st      *store.Store
	lg      *ledger.Ledger
	reg     *obs.Registry
	pipe    *ingest.Pipeline
	dgrams  [][]byte
	batches [][]netflow.Record
	want    []merkle.Hash // per-router commitment of one epoch's batch
	rng     *rand.Rand
}

func newIngestFlood(b *bench, cfg ingestFloodConfig) (*ingestFlood, error) {
	w := &ingestFlood{cfg: cfg, st: store.Open(floodRetention), lg: ledger.New(), reg: obs.NewRegistry(), rng: b.rng(4)}
	w.batches = newTraffic(b.seed, cfg.flowsPerRouter, 0).epoch(0, cfg.recordsPerEpoch/routers)
	w.dgrams = packetize(b.rng(1), w.batches, cfg.minPer, cfg.maxPer)
	for _, recs := range w.batches {
		w.want = append(w.want, ledger.CommitRecords(recs))
	}
	pipe, err := ingest.New(w.st, w.lg, ingest.Config{QueueDepth: floodQueueDepth, Metrics: w.reg})
	if err != nil {
		return nil, err
	}
	if err := pipe.Start(); err != nil {
		return nil, err
	}
	w.pipe = pipe
	// One untimed epoch warms the decoder's template cache and the
	// shard buffers.
	for _, d := range w.dgrams {
		pipe.Inject(d)
	}
	if err := w.check(pipe.Seal()); err != nil {
		pipe.Close()
		return nil, err
	}
	return w, nil
}

func runIngestFlood(b *bench, cfg ingestFloodConfig) error {
	w, err := timeSetup(b, func() (*ingestFlood, error) { return newIngestFlood(b, cfg) },
		func(w *ingestFlood) { w.pipe.Close() })
	if err != nil {
		return err
	}
	tr := b.tr
	commitHist := w.reg.Histogram("ingest.commit_seconds", obs.DefaultLatencyBuckets)
	var depth []*obs.Gauge
	for name := range w.reg.Snapshot().Gauges {
		if strings.HasPrefix(name, "ingest.queue_depth.") {
			depth = append(depth, w.reg.Gauge(name))
		}
	}
	var commits []float64 // wall ms of each untraced Seal call
	b.start()
	for i := 0; b.running(i); i++ {
		traced := b.traced(i)
		tr.startOp(i, traced)
		peak := int64(0)
		sum0, n0 := commitHist.Sum(), commitHist.Count()
		drop0 := w.pipe.Stats().Dropped()

		clk := startClock()
		sp := tr.begin("ingest.inject")
		for _, d := range w.dgrams {
			w.pipe.Inject(d)
			if traced {
				for _, g := range depth {
					peak = max(peak, g.Value())
				}
			}
		}
		tr.end(sp)
		t1 := time.Now()
		sp = tr.begin("ingest.seal")
		seal := w.pipe.Seal()
		tr.end(sp)
		commit := time.Since(t1)
		sp = tr.begin("router.collect")
		in, err := router.CollectEpoch(w.st, w.lg, seal.Epoch)
		tr.end(sp)
		spent := clk.cost()

		if err == nil {
			err = w.check(seal)
		}
		if err == nil {
			err = w.checkReadBack(in)
		}
		// Drops of every cause (queue_full too) come from the
		// pipeline's counters, noted whether or not the op passed.
		tr.note("ingest.dropped", float64(w.pipe.Stats().Dropped()-drop0))
		if err == nil && traced {
			tr.note("records", float64(seal.Records))
			tr.note("datagrams", float64(len(w.dgrams)))
			tr.note("ingest.queue_peak", float64(peak))
			if n := commitHist.Count() - n0; n > 0 {
				tr.note("ingest.commit_shard_ms", 1000*(commitHist.Sum()-sum0)/float64(n))
			}
		}
		if err == nil && !traced {
			commits = append(commits, ms(commit))
		}
		b.done(i, spent, true, wrap(fmt.Sprintf("epoch %d", seal.Epoch), err))
	}
	b.report = append(b.report,
		named{"ingest_records_per_s", "1/s", b.rate(wall) * float64(cfg.recordsPerEpoch)},
		named{"commit_ms_p50", "ms", median(commits)},
		named{"commit_ms_p90", "ms", quantile(commits, 0.9)},
	)
	if err := w.pipe.Close(); err != nil {
		return err
	}
	return checkIngest(w.pipe, w.lg)
}

// check holds a seal to received == committed: the whole epoch sealed
// across every router, nothing dropped.
func (w *ingestFlood) check(seal ingest.Seal) error {
	if seal.Records != w.cfg.recordsPerEpoch || seal.Dropped != 0 || seal.Routers != routers {
		return fmt.Errorf("sealed %d records from %d routers (%d dropped), want %d from %d",
			seal.Records, seal.Routers, seal.Dropped, w.cfg.recordsPerEpoch, routers)
	}
	return nil
}

// checkReadBack checks the witness read: every router's segment has
// its batch's length and published commitment, and a seeded sample
// router's records re-commit to it.
func (w *ingestFlood) checkReadBack(in *router.EpochInputs) error {
	if len(in.Routers) != routers {
		return fmt.Errorf("read back %d routers, want %d", len(in.Routers), routers)
	}
	for r := range in.Routers {
		if len(in.Batches[r]) != len(w.batches[r]) || in.Commitments[r].Hash != w.want[r] {
			return fmt.Errorf("router %d: read back %d records under another commitment", in.Routers[r], len(in.Batches[r]))
		}
	}
	r := w.rng.Intn(routers)
	if ledger.CommitRecords(in.Batches[r]) != w.want[r] {
		return fmt.Errorf("router %d: read-back records do not re-commit to the published commitment", in.Routers[r])
	}
	return nil
}
