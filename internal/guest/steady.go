package guest

import (
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
)

// SteadyInput builds the aggregation input of the benchmark's
// epoch_stream shape: four routers with 250 Zipf-popular flows each, a
// previous CLog at its 1000-entry plateau (one sweep record per flow)
// and a 1000-record epoch drawn from the same flows. The row-budget
// test and the guest profile both measure it.
func SteadyInput(seed int64) *AggInput {
	gens := trafficgen.PerRouter(trafficgen.Config{
		Seed: seed, NumFlows: 250, Routers: 4, LossRate: 0.02, ZipfS: 1.2,
	})
	sweep := make([][]netflow.Record, len(gens))
	for r, g := range gens {
		for _, key := range g.Flows() {
			rec := g.Record(uint32(r), 0)
			rec.Key = key
			sweep[r] = append(sweep[r], rec)
		}
	}
	prev := ReferenceAggregate(nil, sweep...)
	in := &AggInput{PrevRoot: vmtree.Root(EntryWordsOf(prev)), Epoch: 1, PrevEntries: prev}
	for r, g := range gens {
		recs := g.Batch(uint32(r), 1, 250)
		in.Routers = append(in.Routers, RouterBatch{
			ID:         uint32(r),
			Commitment: vmtree.FromBytes(ledger.CommitRecords(recs)),
			Records:    recs,
		})
	}
	return in
}
