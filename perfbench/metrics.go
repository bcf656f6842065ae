package main

// Metric definitions. BENCHMARK.json's end_to_end and per_layer lists
// mirror endToEndMetrics and layerMetrics; the self-test checks that
// they agree.

// endToEndMetrics are reported by every workload with tracing off.
// Their times are CPU time of the process at the reference core speed
// (bench.refSpeed). CPU time leaves out the time the host kept the
// vCPUs from running (steal), which moves wall time by tens of percent
// from one run to the next on a shared host, and the scaling takes out
// most of the rest of the host's drift (see README.md). The primary op
// is the epoch (first datagram injected → light client verified) in
// epoch_stream, the proven SQL query (POST → client verified) in
// query_audit, a batch of full audits (ledger, every receipt,
// VerifyAggregation) in verify_audit, and the epoch (inject, Seal,
// read back) in ingest_flood.
//
//   - setup_s: median CPU seconds of one fixture build.
//   - op_cpu_ms_p50: median CPU time of one primary op.
//   - ops_per_cpu_s: passed ops of every kind per CPU second spent
//     inside ops; input generation and the correctness checks between
//     ops do not count.
//
// measuredFigures prints them unscaled (cpu_*) beside the wall-clock
// ones.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_cpu_ms_p50", "ms"},
	{"ops_per_cpu_s", "1/s"},
}

func endToEnd(b *bench) map[string]metric {
	speed := b.refSpeed()
	return map[string]metric{
		"setup_s":       {median(msOf(b.setup, cpu)) / 1000 * speed, "s"},
		"op_cpu_ms_p50": {b.quantile(0.5, cpu) * speed, "ms"},
		"ops_per_cpu_s": {b.rate(cpu) / speed, "1/s"},
	}
}

// measuredFigures are the end-to-end figures as measured, unscaled CPU
// and wall clock, printed by every workload but not bounded, with the
// sample count under the latency quantiles.
func measuredFigures(b *bench) []named {
	return []named{
		{"calibration_ms", "ms", median(b.calib)},
		{"cpu_setup_s", "s", median(msOf(b.setup, cpu)) / 1000},
		{"cpu_op_ms_p50", "ms", b.quantile(0.5, cpu)},
		{"setup_wall_s", "s", median(msOf(b.setup, wall)) / 1000},
		{"op_ms_p50", "ms", b.quantile(0.5, wall)},
		{"op_ms_p90", "ms", b.quantile(0.9, wall)},
		{"ops_per_s", "1/s", b.rate(wall)},
		{"primary_ops", "count", float64(len(b.primary))},
	}
}

// layerMetric is one per-layer figure: the op's value for key
// (divided by its value for per, when set, and multiplied by scale),
// combined over the traced ops by agg — the median, except the max for
// the queue peak and the sum for drops. A layer a workload never calls
// reads 0.
type layerMetric struct {
	name, unit string
	key, per   string
	scale      float64
	agg        func([]float64) float64
}

func lm(name, unit, key string) layerMetric {
	return layerMetric{name: name, unit: unit, key: key, scale: 1, agg: median}
}

// perOne is a per-layer figure per audit or light sync: verify_audit
// runs several in one op.
func perOne(name, unit, key, per string) layerMetric {
	return layerMetric{name: name, unit: unit, key: key, per: per, scale: 1, agg: median}
}

var layerMetrics = []layerMetric{
	// Prover (epoch_stream: aggregation guest; query_audit: query guest).
	lm("zkvm.prove_ms", "ms", "zkvm.prove_ms"),
	lm("zkvm.stage.execute_ms", "ms", "zkvm.stage.execute_ms"),
	lm("zkvm.stage.mem_sort_ms", "ms", "zkvm.stage.mem_sort_ms"),
	lm("zkvm.stage.merkle_commit_ms", "ms", "zkvm.stage.merkle_commit_ms"),
	lm("zkvm.stage.grand_product_ms", "ms", "zkvm.stage.grand_product_ms"),
	lm("zkvm.stage.seal_ms", "ms", "zkvm.stage.seal_ms"),
	lm("zkvm.rows", "count", "zkvm.rows"),
	{name: "zkvm.rows_per_record", unit: "count", key: "zkvm.rows", per: "records", scale: 1, agg: median},
	{name: "zkvm.mem_ops_per_record", unit: "count", key: "zkvm.mem_ops", per: "records", scale: 1, agg: median},
	lm("zkvm.receipt_kb", "KiB", "zkvm.receipt_kb"),
	// Operator write path (epoch_stream).
	lm("core.aggregate_ms", "ms", "core.aggregate_ms"),
	lm("core.self_ms", "ms", "core.aggregate_self_ms"),
	lm("ingest.inject_ms", "ms", "ingest.inject_ms"),
	lm("ingest.seal_ms", "ms", "ingest.seal_ms"),
	lm("api.publish_ms", "ms", "api.publish_ms"),
	perOne("lightsync.sync_ms", "ms", "lightsync.sync_ms", "light_syncs"),
	perOne("lightsync.bytes", "B", "lightsync.bytes", "light_syncs"),
	// Read path (query_audit, verify_audit).
	lm("api.query_ms", "ms", "api.query_ms"),
	lm("core.verify_query_ms", "ms", "core.verify_query_ms"),
	perOne("api.ledger_ms", "ms", "api.ledger_ms", "audits"),
	perOne("api.receipt_ms", "ms", "api.receipt_ms", "audits"),
	perOne("core.verify_aggregation_ms", "ms", "core.verify_aggregation_ms", "audits"),
	perOne("api.audit_bytes", "B", "api.audit_bytes", "audits"),
	// Collector (ingest_flood).
	{name: "ingest.inject_ns_per_record", unit: "ns", key: "ingest.inject_ms", per: "records", scale: 1e6, agg: median},
	lm("ingest.commit_shard_ms", "ms", "ingest.commit_shard_ms"),
	lm("router.collect_ms", "ms", "router.collect_ms"),
	{name: "ingest.queue_peak", unit: "count", key: "ingest.queue_peak", scale: 1, agg: maxOf},
	{name: "ingest.dropped", unit: "count", key: "ingest.dropped", scale: 1, agg: sum},
}

// overheadMetric is the traced minus the untraced primary-op CPU p50
// of the same run, as a percentage of the untraced one.
const overheadMetric = "trace.overhead_pct"

func perLayer(b *bench, vals map[int]map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, m := range layerMetrics {
		var xs []float64
		for _, op := range vals {
			v, ok := op[m.key]
			if !ok {
				continue
			}
			if m.per != "" {
				d, ok := op[m.per]
				if !ok || d == 0 {
					continue
				}
				v /= d
			}
			xs = append(xs, v*m.scale)
		}
		out[m.name] = metric{m.agg(xs), m.unit}
	}
	overhead := 0.0
	if u := b.quantile(0.5, cpu); u > 0 && len(b.primaryTraced) > 0 {
		overhead = 100 * (median(msOf(b.primaryTraced, cpu)) - u) / u
	}
	out[overheadMetric] = metric{overhead, "%"}
	return out
}
