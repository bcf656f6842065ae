package main

import (
	"math/rand"

	"zkflow/internal/clog"
	"zkflow/internal/netflow"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
)

// routers is the paper testbed's vantage-point count.
const routers = 4

// zipfS is the flow-popularity skew of the generated traffic
// (trafficgen's default), also used to pick the flows queries ask about.
const zipfS = 1.2

// traffic is the seeded record source every workload draws from: four
// routers, each with its own bounded, Zipf-popular flow population.
type traffic struct {
	gens []*trafficgen.Generator
}

func newTraffic(seed int64, flowsPerRouter int, loss float64) traffic {
	return traffic{gens: trafficgen.PerRouter(trafficgen.Config{
		Seed: seed, NumFlows: flowsPerRouter, Routers: routers, LossRate: loss, ZipfS: zipfS,
	})}
}

// epoch draws perRouter records from each router's Zipf stream.
func (t traffic) epoch(epoch uint64, perRouter int) [][]netflow.Record {
	out := make([][]netflow.Record, len(t.gens))
	for r, g := range t.gens {
		out[r] = g.Batch(uint32(r), epoch, perRouter)
	}
	return out
}

// sweep returns one record for every flow of every router's
// population: aggregating it brings the CLog straight to its plateau,
// after which Zipf epochs only update existing entries.
func (t traffic) sweep(epoch uint64) [][]netflow.Record {
	out := make([][]netflow.Record, len(t.gens))
	for r, g := range t.gens {
		for _, key := range g.Flows() {
			rec := g.Record(uint32(r), epoch)
			rec.Key = key
			out[r] = append(out[r], rec)
		}
	}
	return out
}

// packetize encodes each router's records as NetFlow v9 export
// packets of seeded sizes in [minPer, maxPer] records, interleaving
// the routers packet by packet as a collector would see them. Each
// router's records keep their order, so its committed segment equals
// its batch.
func packetize(rng *rand.Rand, batches [][]netflow.Record, minPer, maxPer int) [][]byte {
	var out [][]byte
	off := make([]int, len(batches))
	var seq uint32
	for left := true; left; {
		left = false
		for r, recs := range batches {
			if off[r] == len(recs) {
				continue
			}
			n := minPer + rng.Intn(maxPer-minPer+1)
			end := min(off[r]+n, len(recs))
			chunk := recs[off[r]:end]
			off[r] = end
			seq++
			out = append(out, netflow.EncodeV9(&netflow.ExportPacket{
				UnixSecs: chunk[0].StartUnix, Sequence: seq, SourceID: uint32(r), Records: chunk,
			}))
			left = left || end < len(recs)
		}
	}
	return out
}

// clogRoot is the Merkle root the aggregation guest journals for a
// CLog (the same construction core uses).
func clogRoot(entries []clog.Entry) vmtree.Digest {
	return clog.MergeSubTreeRoots(clog.SubTreeRoots(entries, 1))
}

func countRecords(batches [][]netflow.Record) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}
