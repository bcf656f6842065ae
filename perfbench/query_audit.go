package main

import (
	"context"
	"fmt"
	"math/rand"

	"zkflow/internal/api"
	"zkflow/internal/core"
	"zkflow/internal/guest"
	"zkflow/internal/ledger"
	"zkflow/internal/lightsync"
	"zkflow/internal/netflow"
	"zkflow/internal/query"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// queryAuditConfig sizes the query_audit and verify_audit workloads.
type queryAuditConfig struct {
	flowsPerRouter   int
	recordsPerRouter int
	perPacket        int
	rounds           int    // aggregation rounds served: the sweep plus rounds-1 Zipf epochs
	mix              [3]int // ops per cycle: query, full audit, light sync
	batch            int    // audits or light syncs per op, each by a fresh client
}

// queryAuditDefault runs the three read-path ops in equal shares;
// the primary op is the proven query.
var queryAuditDefault = queryAuditConfig{
	flowsPerRouter: 250, recordsPerRouter: 250, perPacket: 30,
	rounds: 3, mix: [3]int{1, 1, 1}, batch: 1,
}

// verifyAuditDefault serves the same rounds but runs only the client's
// verification ops, full audits and light syncs in equal shares; the
// primary op is a batch of full audits. An audit takes about 10 ms, so
// one alone is at the mercy of a GC cycle or a host stall and its p90
// swings from run to run; a batch of 8 averages them out.
var verifyAuditDefault = queryAuditConfig{
	flowsPerRouter: 250, recordsPerRouter: 250, perPacket: 30,
	rounds: 3, mix: [3]int{0, 1, 1}, batch: 8,
}

// The op kinds of the mix, in mix order.
const (
	opQuery = iota
	opAudit
	opLightSync
)

// primary is the first op kind the mix runs.
func (c queryAuditConfig) primary() int {
	for k, n := range c.mix {
		if n > 0 {
			return k
		}
	}
	return -1
}

// queryAudit is the read path: one client cycling proven SQL queries,
// full audits and light syncs against an operator serving a fixed run
// of proven epochs.
type queryAudit struct {
	cfg      queryAuditConfig
	op       *operator
	flows    [][]netflow.FlowKey // per router, in trafficgen's popularity order
	rng      *rand.Rand
	zipf     *rand.Zipf
	verifier *core.Verifier // trusts the served head, for queries
	words    [][]uint32     // reference CLog, for query.Eval
	root     vmtree.Digest
	cp0      ledger.Checkpoint
	head     ledger.Checkpoint
}

func newQueryAudit(b *bench, cfg queryAuditConfig) (*queryAudit, error) {
	op, err := newOperator(b)
	if err != nil {
		return nil, err
	}
	w := &queryAudit{cfg: cfg, op: op, rng: b.rng(3)}
	w.zipf = rand.NewZipf(w.rng, zipfS, 1, uint64(cfg.flowsPerRouter-1))
	if err := w.serve(b); err != nil {
		op.close()
		return nil, err
	}
	return w, nil
}

// serve proves and publishes the fixed run of epochs, then brings the
// query client's verifier up to the served head over HTTP.
func (w *queryAudit) serve(b *bench) error {
	t := newTraffic(b.seed, w.cfg.flowsPerRouter, 0.02)
	packets := b.rng(1)
	for e := 0; e < w.cfg.rounds; e++ {
		batches := t.sweep(0)
		if e > 0 {
			batches = t.epoch(uint64(e), w.cfg.recordsPerRouter)
		}
		if err := w.op.runEpoch(packetize(packets, batches, w.cfg.perPacket, w.cfg.perPacket), batches); err != nil {
			return err
		}
	}
	for _, g := range t.gens {
		w.flows = append(w.flows, g.Flows())
	}
	w.words = guest.EntryWordsOf(w.op.ref)
	w.root = clogRoot(w.op.ref)
	var err error
	if w.cp0, err = w.op.lg.CheckpointByEpoch(0); err != nil {
		return err
	}
	if w.head, err = w.op.lg.LatestCheckpoint(); err != nil {
		return err
	}
	v, _, err := w.audit(context.Background(), nil)
	if err != nil {
		return err
	}
	w.verifier = v
	return nil
}

func runQueryAudit(b *bench, cfg queryAuditConfig) error {
	w, err := timeSetup(b, func() (*queryAudit, error) { return newQueryAudit(b, cfg) },
		func(w *queryAudit) { w.op.close() })
	if err != nil {
		return err
	}
	tr := b.tr
	ctx := context.Background()
	total := cfg.mix[0] + cfg.mix[1] + cfg.mix[2]
	kinds := make([]int, 0, total) // op kinds of one cycle, in mix order
	for k, n := range cfg.mix {
		for ; n > 0; n-- {
			kinds = append(kinds, k)
		}
	}
	samples := map[string][]float64{} // per-op values of the named figures below
	seen := map[string]bool{}         // query texts already proven this run
	queries, repeats := 0, 0
	var cycle []int
	b.start()
	for i := 0; b.running(i); i++ {
		// Each cycle of total ops runs the mix exactly, in seeded order.
		if i%total == 0 {
			cycle = w.rng.Perm(total)
		}
		kind := kinds[cycle[i%total]]
		tr.startOp(i, b.traced(i))
		var spent cost
		var err error
		switch kind {
		case opQuery:
			sql := w.queryText()
			if seen[sql] {
				repeats++
			}
			seen[sql] = true
			queries++
			clk := startClock()
			var j *guest.QueryJournal
			var claim *api.QueryResponse
			j, claim, err = w.query(ctx, tr, sql)
			spent = clk.cost()
			if err == nil {
				err = w.checkQuery(sql, j, claim)
			}
			err = wrap("query", err)
		case opAudit:
			for n := 0; n < cfg.batch && err == nil; n++ {
				clk := startClock()
				v, bytes, aerr := w.audit(ctx, tr)
				dn := clk.cost()
				spent = spent.add(dn)
				if aerr == nil && (v.Rounds() != cfg.rounds || v.TrustedRoot() != w.root) {
					aerr = fmt.Errorf("verified %d rounds to a root other than the reference", v.Rounds())
				}
				if aerr == nil {
					samples["audit_ms"] = append(samples["audit_ms"], ms(dn.wall))
					samples["audit_bytes"] = append(samples["audit_bytes"], float64(bytes))
					tr.note("api.audit_bytes", float64(bytes))
					tr.note("audits", 1)
				}
				err = wrap("audit", aerr)
			}
		default:
			for n := 0; n < cfg.batch && err == nil; n++ {
				opts := lightsync.Options{Samples: 1, Seed: w.rng.Int63() | 1, MinChecks: zkvm.DefaultChecks}
				clk := startClock()
				rep, serr := w.lightSync(ctx, tr, opts)
				dn := clk.cost()
				spent = spent.add(dn)
				if serr == nil && (rep.To.Digest() != w.head.Digest() || len(rep.SampledRounds) != 1) {
					serr = fmt.Errorf("light client reached epoch %d sampling rounds %v, want the head at epoch %d",
						rep.To.Epoch, rep.SampledRounds, w.head.Epoch)
				}
				if serr == nil {
					samples["light_sync_ms"] = append(samples["light_sync_ms"], ms(dn.wall))
					samples["light_sync_bytes"] = append(samples["light_sync_bytes"], float64(rep.Bytes))
					tr.note("lightsync.bytes", float64(rep.Bytes))
					tr.note("light_syncs", 1)
				}
				err = wrap("light sync", serr)
			}
		}
		b.done(i, spent, kind == cfg.primary(), err)
	}
	if cfg.primary() == opQuery {
		b.report = append(b.report,
			named{"query_ms_p50", "ms", b.quantile(0.5, wall)},
			named{"query_ms_p90", "ms", b.quantile(0.9, wall)},
			named{"query_repeat_share", "1", float64(repeats) / float64(max(queries, 1))},
		)
	}
	b.report = append(b.report,
		named{"audit_ms_p50", "ms", median(samples["audit_ms"])},
		named{"audit_bytes", "B", median(samples["audit_bytes"])},
		named{"light_sync_ms_p50", "ms", median(samples["light_sync_ms"])},
		named{"light_sync_bytes", "B", median(samples["light_sync_bytes"])},
	)
	return w.op.finish()
}

func wrap(kind string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", kind, err)
}

// query proves sql on the operator over POST /api/v1/query and
// verifies the receipt against the client's trusted root.
func (w *queryAudit) query(ctx context.Context, tr *tracer, sql string) (*guest.QueryJournal, *api.QueryResponse, error) {
	root := tr.begin("query")
	defer tr.end(root)
	sp := tr.begin("api.query")
	claim, receipt, err := w.op.client().Query(ctx, sql)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("core.verify_query")
	j, err := w.verifier.VerifyQuery(sql, receipt)
	tr.end(sp)
	return j, claim, err
}

// checkQuery holds a verified answer to the operator's claim and to
// query.Eval over the reference CLog.
func (w *queryAudit) checkQuery(sql string, j *guest.QueryJournal, claim *api.QueryResponse) error {
	q, err := query.Parse(sql)
	if err != nil {
		return err
	}
	matched, result := q.Eval(w.words)
	if j.Result() != result || j.Matched != matched || claim.Result != result || claim.Matched != matched {
		return fmt.Errorf("%q: proven %d/%d, claimed %d/%d, reference %d/%d",
			sql, j.Result(), j.Matched, claim.Result, claim.Matched, result, matched)
	}
	return nil
}

// audit is a full audit from scratch: the whole ledger, every round's
// receipt, and the verifier's chain over them. It returns the verifier
// and the response bytes read.
func (w *queryAudit) audit(ctx context.Context, tr *tracer) (*core.Verifier, uint64, error) {
	root := tr.begin("audit")
	defer tr.end(root)
	c := w.op.client()
	sp := tr.begin("api.ledger")
	lg, err := c.Ledger(ctx)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	v := core.NewVerifier(lg)
	v.SetMinChecks(zkvm.DefaultChecks)
	for r := 0; r < w.cfg.rounds; r++ {
		sp = tr.begin("api.receipt")
		receipt, err := c.AggregationReceipt(ctx, r)
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.begin("core.verify_aggregation")
		_, err = v.VerifyAggregation(receipt)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("round %d: %w", r, err)
		}
	}
	return v, c.BytesRead(), nil
}

// lightSync syncs a fresh client from the epoch-0 pin to the head.
func (w *queryAudit) lightSync(ctx context.Context, tr *tracer, opts lightsync.Options) (*lightsync.Report, error) {
	sp := tr.begin("lightsync.sync")
	defer tr.end(sp)
	st, err := lightsync.Pin(w.op.http.URL, w.cp0)
	if err != nil {
		return nil, err
	}
	return lightsync.Sync(ctx, w.op.client(api.WithCache()), st, opts)
}

// queryText returns the next query: the paper's query (E1's
// SUM(hop_count) over one src/dst pair), about a flow drawn the way the
// traffic draws it, a uniform router and a Zipf-popular flow of its
// population. Popular flows come up again, so texts repeat in part; the
// share is a property of the workload, reported as query_repeat_share.
func (w *queryAudit) queryText() string {
	flows := w.flows[w.rng.Intn(len(w.flows))]
	k := flows[w.zipf.Uint64()]
	return fmt.Sprintf(`SELECT SUM(hop_count) FROM clogs WHERE src_ip = "%s" AND dst_ip = "%s";`, ip(k.SrcIP), ip(k.DstIP))
}

func ip(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", v>>24, v>>16&0xff, v>>8&0xff, v&0xff)
}
