// Command zkflow-benchdiff compares two `zkflow-bench -json` reports
// (e.g. BENCH_PR4.json against a fresh run) and flags regressions:
//
//	zkflow-benchdiff old.json new.json
//	zkflow-benchdiff -threshold 15 old.json new.json
//
// Every gated metric that got slower by more than the threshold
// (default 10%) is listed and the tool exits 1, so CI can gate
// future PRs on the committed baseline. Reports taken on different
// environments (CPU count or sampled-check count) are not comparable:
// the tool refuses them and exits 2 before any delta is computed. Gated metrics: agg_proof_ms,
// query_proof_ms, agg_verify_ms per sweep row, and the stage-split
// wall time. Verify times are few-millisecond quantities, so their
// gate also requires an absolute slowdown above verifyNoiseFloorMs —
// pure timer noise cannot trip it. query_verify_ms stays
// informational.
//
// Ingest throughput (ingest_flows_per_sec) gates in the opposite
// direction — lower is a regression — with its own absolute noise
// floor; only in-process inject rows gate, udp rows are sender-paced
// and stay informational.
//
// Light-sync rows (E17) gate on light_bytes_pct — higher is a
// regression, and any row at or above 10% of full-fetch bytes fails
// outright — and on light_sync_ms like the other verify times.
// full_audit_ms is the comparison baseline and stays informational.
//
// Farm rows (E18) gate on farm_speedup_x for multi-worker rows —
// lower is a regression, and any row under 70% of ideal fails
// outright — and on farm_failover_recovery_ms (higher is a
// regression, with an absolute noise floor sized to the heartbeat
// interval). A farm row that is not byte-identical to the
// single-prover receipt fails unconditionally: that is a correctness
// bug wearing a benchmark's clothes.
//
// Kernel rows (E20) are direction-aware per op. "ntt" rows gate on
// ntt_melems_per_sec like throughput — lower is the regression — with
// an absolute floor so timer wobble on a fast lane cannot fail CI.
// Chain rows ("agg_chain") gate agg_proof_ms like the other proving
// times and agg_verify_ms like the verify times.
//
// Stdlib only: this is meant to run in the same bare container as the
// benchmarks themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// The types mirror cmd/zkflow-bench's BenchReport schema.

type sweepRow struct {
	Records      int     `json:"records"`
	AggProofMs   float64 `json:"agg_proof_ms"`
	QueryProofMs float64 `json:"query_proof_ms"`
	AggVerifyMs  float64 `json:"agg_verify_ms"`
	QryVerifyMs  float64 `json:"query_verify_ms"`
}

type stageSplit struct {
	Records int                `json:"records"`
	WallMs  float64            `json:"wall_ms"`
	Stages  map[string]float64 `json:"stages_ms"`
}

type ingestRow struct {
	Shards      int     `json:"shards"`
	Transport   string  `json:"transport"`
	Protocol    string  `json:"protocol"`
	FlowsPerSec float64 `json:"ingest_flows_per_sec"`
	DroppedPct  float64 `json:"dropped_pct"`
}

type lightSyncRow struct {
	Epochs        int     `json:"epochs"`
	Entries       int     `json:"entries"`
	Sampled       int     `json:"sampled"`
	LightBytes    int64   `json:"light_bytes"`
	FullBytes     int64   `json:"full_bytes"`
	LightBytesPct float64 `json:"light_bytes_pct"`
	LightSyncMs   float64 `json:"light_sync_ms"`
	FullAuditMs   float64 `json:"full_audit_ms"`
}

type farmRow struct {
	Workers            int     `json:"workers"`
	Failover           bool    `json:"failover"`
	Records            int     `json:"records"`
	Segments           int     `json:"segments"`
	ProveMs            float64 `json:"prove_ms"`
	SpeedupX           float64 `json:"farm_speedup_x"`
	IdealPct           float64 `json:"farm_ideal_pct"`
	FailoverRecoveryMs float64 `json:"farm_failover_recovery_ms"`
	ByteIdentical      bool    `json:"byte_identical"`
}

type kernelRow struct {
	Op              string  `json:"op"`
	Size            int     `json:"size"`
	Parallelism     int     `json:"parallelism"`
	AggProofMs      float64 `json:"agg_proof_ms"`
	AggVerifyMs     float64 `json:"agg_verify_ms"`
	NTTMElemsPerSec float64 `json:"ntt_melems_per_sec"`
}

type benchReport struct {
	CPUs      int            `json:"cpus"`
	Checks    int            `json:"checks"`
	Sweep     []sweepRow     `json:"sweep"`
	Stages    stageSplit     `json:"stages"`
	Ingest    []ingestRow    `json:"ingest"`
	LightSync []lightSyncRow `json:"lightsync"`
	Farm      []farmRow      `json:"farm"`
	Kernel    []kernelRow    `json:"kernel"`
}

func load(path string) (*benchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// delta formats the relative change and reports whether it exceeds
// the regression threshold (newer slower than older by > threshold%).
func delta(oldMs, newMs, threshold float64) (string, bool) {
	if oldMs <= 0 {
		return "   n/a", false
	}
	pct := 100 * (newMs - oldMs) / oldMs
	return fmt.Sprintf("%+6.1f%%", pct), pct > threshold
}

func main() {
	threshold := flag.Float64("threshold", 10, "regression threshold in percent")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: zkflow-benchdiff [-threshold pct] old.json new.json")
		os.Exit(2)
	}
	oldR, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newR, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if oldR.CPUs != newR.CPUs || oldR.Checks != newR.Checks {
		fmt.Fprintf(os.Stderr, "environments differ (old: %d CPUs checks=%d, new: %d CPUs checks=%d): deltas are not comparable; rerun the baseline on this environment\n",
			oldR.CPUs, oldR.Checks, newR.CPUs, newR.Checks)
		os.Exit(2)
	}

	var regressions []string
	gate := func(name string, oldMs, newMs float64) string {
		d, bad := delta(oldMs, newMs, *threshold)
		if bad {
			regressions = append(regressions, fmt.Sprintf("%s: %.1f ms -> %.1f ms (%s)", name, oldMs, newMs, d))
		}
		return d
	}
	// Verify-time gate: relative threshold AND an absolute floor, so a
	// 1.2 ms -> 1.5 ms timer wobble cannot fail CI while a genuine
	// verification blow-up (e.g. an accidentally quadratic composite
	// check) still does.
	const verifyNoiseFloorMs = 1.0
	gateVerify := func(name string, oldMs, newMs float64) string {
		d, bad := delta(oldMs, newMs, *threshold)
		if bad && newMs-oldMs > verifyNoiseFloorMs {
			regressions = append(regressions, fmt.Sprintf("%s: %.2f ms -> %.2f ms (%s)", name, oldMs, newMs, d))
		}
		return d
	}

	oldByRecords := map[int]sweepRow{}
	for _, r := range oldR.Sweep {
		oldByRecords[r.Records] = r
	}
	fmt.Printf("%8s  %22s  %22s  %20s\n", "records", "agg proof old->new", "query proof old->new", "agg verify old->new")
	for _, n := range newR.Sweep {
		o, ok := oldByRecords[n.Records]
		if !ok {
			fmt.Printf("%8d  (no baseline)\n", n.Records)
			continue
		}
		name := fmt.Sprintf("sweep[%d]", n.Records)
		ad := gate(name+".agg_proof", o.AggProofMs, n.AggProofMs)
		qd := gate(name+".query_proof", o.QueryProofMs, n.QueryProofMs)
		vd := gateVerify(name+".agg_verify", o.AggVerifyMs, n.AggVerifyMs)
		fmt.Printf("%8d  %6.0f -> %-6.0f %s  %6.0f -> %-6.0f %s  %5.1f -> %-5.1f %s\n",
			n.Records, o.AggProofMs, n.AggProofMs, ad, o.QueryProofMs, n.QueryProofMs, qd,
			o.AggVerifyMs, n.AggVerifyMs, vd)
	}

	if oldR.Stages.WallMs > 0 && newR.Stages.WallMs > 0 {
		fmt.Printf("\n%-16s  %22s\n", "stage", "old->new")
		for stage, newMs := range newR.Stages.Stages {
			oldMs, ok := oldR.Stages.Stages[stage]
			if !ok {
				fmt.Printf("%-16s  (no baseline)\n", stage)
				continue
			}
			d, _ := delta(oldMs, newMs, *threshold)
			fmt.Printf("%-16s  %7.1f -> %-7.1f %s\n", stage, oldMs, newMs, d)
		}
		d := gate("stages.wall", oldR.Stages.WallMs, newR.Stages.WallMs)
		fmt.Printf("%-16s  %7.1f -> %-7.1f %s\n", "wall", oldR.Stages.WallMs, newR.Stages.WallMs, d)
	}

	if len(newR.Ingest) > 0 {
		// Throughput gates point the other way: a regression is the new
		// number being LOWER. Relative threshold plus an absolute floor
		// (ingestNoiseFloorFPS) so scheduler wobble on an otherwise
		// multi-million-flows/sec lane cannot fail CI. Only in-process
		// inject rows gate; udp rows are sender-paced and informational.
		const ingestNoiseFloorFPS = 50_000
		oldIngest := map[string]ingestRow{}
		ikey := func(r ingestRow) string {
			return fmt.Sprintf("%s/%s/shards=%d", r.Transport, r.Protocol, r.Shards)
		}
		for _, r := range oldR.Ingest {
			oldIngest[ikey(r)] = r
		}
		fmt.Printf("\n%-24s  %28s\n", "ingest lane", "flows/sec old->new")
		for _, n := range newR.Ingest {
			o, ok := oldIngest[ikey(n)]
			if !ok {
				fmt.Printf("%-24s  (no baseline)\n", ikey(n))
				continue
			}
			pct := 0.0
			if o.FlowsPerSec > 0 {
				pct = 100 * (n.FlowsPerSec - o.FlowsPerSec) / o.FlowsPerSec
			}
			if n.Transport == "inject" && -pct > *threshold && o.FlowsPerSec-n.FlowsPerSec > ingestNoiseFloorFPS {
				regressions = append(regressions, fmt.Sprintf("ingest[%s]: %.0f -> %.0f flows/sec (%+.1f%%)",
					ikey(n), o.FlowsPerSec, n.FlowsPerSec, pct))
			}
			fmt.Printf("%-24s  %9.0f -> %-9.0f %+6.1f%%\n", ikey(n), o.FlowsPerSec, n.FlowsPerSec, pct)
		}
	}

	if len(newR.LightSync) > 0 {
		// Light-sync gates. The bytes ratio is the whole point of the
		// experiment (E17), so it gets two gates: a relative one against
		// the baseline (with an absolute floor of half a percentage
		// point, so JSON framing wobble cannot trip it) and a hard cap —
		// any row at or above 10% of full-fetch bytes fails regardless
		// of what the baseline said. Sync wall time gates like verify
		// times (relative + verifyNoiseFloorMs); full_audit_ms is the
		// baseline lane and stays informational.
		const lightBytesFloorPct = 0.5
		const lightBytesHardCapPct = 10.0
		oldLS := map[int]lightSyncRow{}
		for _, r := range oldR.LightSync {
			oldLS[r.Epochs] = r
		}
		fmt.Printf("\n%8s  %24s  %22s\n", "epochs", "light bytes% old->new", "light sync old->new")
		for _, n := range newR.LightSync {
			if n.LightBytesPct >= lightBytesHardCapPct {
				regressions = append(regressions, fmt.Sprintf("lightsync[%d]: light fetch is %.2f%% of full (target < %.0f%%)",
					n.Epochs, n.LightBytesPct, lightBytesHardCapPct))
			}
			o, ok := oldLS[n.Epochs]
			if !ok {
				fmt.Printf("%8d  (no baseline)\n", n.Epochs)
				continue
			}
			pd, bad := delta(o.LightBytesPct, n.LightBytesPct, *threshold)
			if bad && n.LightBytesPct-o.LightBytesPct > lightBytesFloorPct {
				regressions = append(regressions, fmt.Sprintf("lightsync[%d].bytes_pct: %.2f%% -> %.2f%% (%s)",
					n.Epochs, o.LightBytesPct, n.LightBytesPct, pd))
			}
			md := gateVerify(fmt.Sprintf("lightsync[%d].sync_ms", n.Epochs), o.LightSyncMs, n.LightSyncMs)
			fmt.Printf("%8d  %7.2f%% -> %6.2f%% %s  %5.1f -> %-5.1f %s\n",
				n.Epochs, o.LightBytesPct, n.LightBytesPct, pd, o.LightSyncMs, n.LightSyncMs, md)
		}
	}

	if len(newR.Farm) > 0 {
		// Farm gates. Byte identity is absolute: a farm receipt that
		// differs from the single-prover golden is a correctness failure
		// whatever the baseline says. Speedup gates like throughput —
		// lower is the regression — plus the hard 70%-of-ideal floor the
		// experiment commits to. Failover recovery gates like verify
		// times, with an absolute floor: detection is connection-close
		// driven, so sub-100 ms wobble in when the death is noticed is
		// scheduler noise, not a regression.
		const farmIdealFloorPct = 70.0
		const farmRecoveryFloorMs = 100.0
		oldFarm := map[string]farmRow{}
		fkey := func(r farmRow) string {
			return fmt.Sprintf("%dw/failover=%v", r.Workers, r.Failover)
		}
		for _, r := range oldR.Farm {
			oldFarm[fkey(r)] = r
		}
		fmt.Printf("\n%-18s  %24s  %24s\n", "farm lane", "speedup old->new", "recovery ms old->new")
		for _, n := range newR.Farm {
			if !n.ByteIdentical {
				regressions = append(regressions, fmt.Sprintf("farm[%s]: receipt NOT byte-identical to single-prover output", fkey(n)))
			}
			if !n.Failover && n.Workers > 1 && n.IdealPct < farmIdealFloorPct {
				regressions = append(regressions, fmt.Sprintf("farm[%s]: %.0f%% of ideal speedup (target >= %.0f%%)",
					fkey(n), n.IdealPct, farmIdealFloorPct))
			}
			o, ok := oldFarm[fkey(n)]
			if !ok {
				fmt.Printf("%-18s  (no baseline)\n", fkey(n))
				continue
			}
			spct := 0.0
			if o.SpeedupX > 0 {
				spct = 100 * (n.SpeedupX - o.SpeedupX) / o.SpeedupX
			}
			if !n.Failover && n.Workers > 1 && -spct > *threshold {
				regressions = append(regressions, fmt.Sprintf("farm[%s]: %.2fx -> %.2fx speedup (%+.1f%%)",
					fkey(n), o.SpeedupX, n.SpeedupX, spct))
			}
			rd, bad := delta(o.FailoverRecoveryMs, n.FailoverRecoveryMs, *threshold)
			if bad && n.FailoverRecoveryMs-o.FailoverRecoveryMs > farmRecoveryFloorMs {
				regressions = append(regressions, fmt.Sprintf("farm[%s].recovery: %.1f ms -> %.1f ms (%s)",
					fkey(n), o.FailoverRecoveryMs, n.FailoverRecoveryMs, rd))
			}
			fmt.Printf("%-18s  %7.2fx -> %-7.2fx %+5.1f%%  %6.1f -> %-6.1f %s\n",
				fkey(n), o.SpeedupX, n.SpeedupX, spct, o.FailoverRecoveryMs, n.FailoverRecoveryMs, rd)
		}
	}

	if len(newR.Kernel) > 0 {
		// Kernel gates (E20), direction-aware per op. NTT rows gate
		// like throughput — LOWER Melem/s is the regression — with an
		// absolute floor so timer wobble on a fast lane cannot fail
		// CI. Chain rows gate agg_proof_ms like the other proving
		// times and agg_verify_ms like the verify times.
		const nttNoiseFloorMElems = 1.0
		oldKernel := map[string]kernelRow{}
		kkey := func(r kernelRow) string {
			return fmt.Sprintf("%s/n=%d/p=%d", r.Op, r.Size, r.Parallelism)
		}
		for _, r := range oldR.Kernel {
			oldKernel[kkey(r)] = r
		}
		fmt.Printf("\n%-24s  %30s  %22s\n", "kernel lane", "proof ms | Melem/s old->new", "verify old->new")
		for _, n := range newR.Kernel {
			o, ok := oldKernel[kkey(n)]
			if !ok {
				fmt.Printf("%-24s  (no baseline)\n", kkey(n))
				continue
			}
			if n.Op == "ntt" {
				pct := 0.0
				if o.NTTMElemsPerSec > 0 {
					pct = 100 * (n.NTTMElemsPerSec - o.NTTMElemsPerSec) / o.NTTMElemsPerSec
				}
				if -pct > *threshold && o.NTTMElemsPerSec-n.NTTMElemsPerSec > nttNoiseFloorMElems {
					regressions = append(regressions, fmt.Sprintf("kernel[%s]: %.2f -> %.2f Melem/s (%+.1f%%)",
						kkey(n), o.NTTMElemsPerSec, n.NTTMElemsPerSec, pct))
				}
				fmt.Printf("%-24s  %10.2f -> %-10.2f %+5.1f%%\n",
					kkey(n), o.NTTMElemsPerSec, n.NTTMElemsPerSec, pct)
				continue
			}
			pd := gate(fmt.Sprintf("kernel[%s].agg_proof", kkey(n)), o.AggProofMs, n.AggProofMs)
			vd := gateVerify(fmt.Sprintf("kernel[%s].agg_verify", kkey(n)), o.AggVerifyMs, n.AggVerifyMs)
			fmt.Printf("%-24s  %10.1f -> %-10.1f %s  %5.1f -> %-5.1f %s\n",
				kkey(n), o.AggProofMs, n.AggProofMs, pd, o.AggVerifyMs, n.AggVerifyMs, vd)
		}
	}

	if len(regressions) > 0 {
		fmt.Printf("\nREGRESSIONS (> %.0f%% slower):\n", *threshold)
		for _, r := range regressions {
			fmt.Println("  " + r)
		}
		os.Exit(1)
	}
	fmt.Printf("\nno proving-time regressions > %.0f%%\n", *threshold)
}
