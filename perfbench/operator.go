package main

import (
	"fmt"
	"net/http/httptest"

	"zkflow/internal/api"
	"zkflow/internal/clog"
	"zkflow/internal/core"
	"zkflow/internal/guest"
	"zkflow/internal/ingest"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/store"
)

// retention is zkflowd's default store retention (epochs).
const retention = 64

// operator is the in-process deployment the proving workloads drive:
// an ingest pipeline (no socket, no epoch timer) committing into the
// store and ledger, a prover at its defaults, and the v1 API server on
// a loopback HTTP listener. It also keeps the benchmark's reference
// CLog, merged host-side from the generated records alone.
type operator struct {
	st     *store.Store
	lg     *ledger.Ledger
	pipe   *ingest.Pipeline
	prover *core.Prover
	srv    *api.Server
	http   *httptest.Server
	ref    []clog.Entry // reference CLog after the last aggregated epoch
}

func newOperator(b *bench) (*operator, error) {
	o := &operator{st: store.Open(retention), lg: ledger.New()}
	pipe, err := ingest.New(o.st, o.lg, ingest.Config{})
	if err != nil {
		return nil, err
	}
	if err := pipe.Start(); err != nil {
		return nil, err
	}
	o.pipe = pipe
	o.prover = core.NewProver(o.st, o.lg, core.Options{Prove: proveFunc(b.seed, b.tr)})
	o.srv = api.NewServer(o.prover, o.lg)
	o.http = httptest.NewServer(o.srv.Handler())
	return o, nil
}

// close stops the HTTP listener and drains the pipeline.
func (o *operator) close() {
	o.http.Close()
	o.pipe.Close()
}

// client returns a fresh API client over the loopback listener.
func (o *operator) client(opts ...api.Option) *api.Client {
	return api.New(o.http.URL, append([]api.Option{api.WithHTTPClient(o.http.Client())}, opts...)...)
}

// runEpoch is the untimed form of one write-path epoch, used to build
// the state a workload starts from: inject, seal, aggregate, publish,
// and check the result against the reference.
func (o *operator) runEpoch(dgrams [][]byte, batches [][]netflow.Record) error {
	for _, d := range dgrams {
		o.pipe.Inject(d)
	}
	seal := o.pipe.Seal()
	if err := o.checkSeal(seal, batches); err != nil {
		return err
	}
	res, err := o.prover.AggregateEpoch(seal.Epoch)
	if err != nil {
		return err
	}
	if err := o.srv.AddAggregationResult(res); err != nil {
		return err
	}
	return o.checkRound(res, batches)
}

// checkSeal holds the collector to received == committed for the
// epoch: every generated record sealed, none dropped.
func (o *operator) checkSeal(seal ingest.Seal, batches [][]netflow.Record) error {
	if want := countRecords(batches); seal.Records != want || seal.Dropped != 0 {
		return fmt.Errorf("epoch %d sealed %d records (%d dropped), want %d", seal.Epoch, seal.Records, seal.Dropped, want)
	}
	return nil
}

// checkRound advances the reference CLog by the epoch's generated
// records and checks the proven round journals the same root.
func (o *operator) checkRound(res *core.AggregationResult, batches [][]netflow.Record) error {
	o.ref = guest.ReferenceAggregate(o.ref, batches...)
	if got, want := res.Journal.NewRoot, clogRoot(o.ref); got != want {
		return fmt.Errorf("epoch %d: proven root differs from the reference CLog root", res.Epoch)
	}
	return nil
}

// finish closes the pipeline and checks the run-wide invariants: no
// record dropped or unaccounted, and a hash chain that verifies.
func (o *operator) finish() error {
	o.close()
	return checkIngest(o.pipe, o.lg)
}

// checkIngest checks the collector's accounting after Close and the
// ledger's hash chain.
func checkIngest(pipe *ingest.Pipeline, lg *ledger.Ledger) error {
	s := pipe.Stats()
	if s.Received != s.Committed || s.Dropped() != 0 || s.Unaccounted() != 0 || s.BadDatagrams != 0 {
		return fmt.Errorf("ingest accounting: %+v", s)
	}
	if err := ledger.VerifyChain(lg.Entries()); err != nil {
		return fmt.Errorf("ledger chain: %w", err)
	}
	return nil
}
