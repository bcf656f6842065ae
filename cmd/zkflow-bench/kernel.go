package main

import (
	"fmt"
	"log"
	"time"

	"zkflow/internal/fastagg"
	"zkflow/internal/field"
	"zkflow/internal/gperm"
	"zkflow/internal/poly"
	"zkflow/internal/stark"
)

// KernelRow is one E20 measurement (the BENCH_PR*.json kernel
// schema): either a raw transform throughput point (op "ntt",
// ntt_melems_per_sec set) or a specialized chain proof (op
// "agg_chain", agg_proof_ms / agg_verify_ms set).
// Rows are keyed by op/size/parallelism in zkflow-benchdiff, and the
// gates are direction-aware: throughput regressing DOWN or latency
// regressing UP fails the diff.
type KernelRow struct {
	Op              string  `json:"op"`
	Size            int     `json:"size"`
	Parallelism     int     `json:"parallelism"`
	AggProofMs      float64 `json:"agg_proof_ms,omitempty"`
	AggVerifyMs     float64 `json:"agg_verify_ms,omitempty"`
	NTTMElemsPerSec float64 `json:"ntt_melems_per_sec,omitempty"`
}

// nttThroughput measures forward-transform throughput at size 2^logN
// with warm twiddle tables and a pooled buffer — the steady-state
// cost a proving process pays, not the cold first-call cost.
func nttThroughput(logN int) float64 {
	n := 1 << logN
	buf := poly.GetBuf(n)
	defer poly.PutBuf(buf)
	for i := range buf {
		buf[i] = field.New(uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	poly.NTT(buf) // warm the twiddle table for this size
	iters := 1
	for iters*n < 1<<22 {
		iters *= 2
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		poly.NTT(buf)
	}
	return float64(iters) * float64(n) / time.Since(t0).Seconds() / 1e6
}

// expKernel is the E20 experiment: the STARK math kernel in
// isolation, without any zkVM cost on top. Three NTT throughput
// points, then the specialized aggregation chain at n=8192 (the
// ~1000-record sequential-work commitment E6 uses) — proved at
// Parallelism 1 so the gated number is single-core kernel speed,
// comparable across PRs regardless of the bench host's core count.
func expKernel() []KernelRow {
	fmt.Println("=== E20: STARK math kernel — NTT throughput + specialized chain latency ===")
	var rows []KernelRow
	fmt.Printf("%-12s %8s %12s %12s %12s %14s\n",
		"op", "size", "parallelism", "prove", "verify", "NTT Melem/s")
	for _, logN := range []int{12, 14, 16} {
		r := KernelRow{Op: "ntt", Size: 1 << logN, Parallelism: 1, NTTMElemsPerSec: nttThroughput(logN)}
		rows = append(rows, r)
		fmt.Printf("%-12s %8d %12d %12s %12s %14.2f\n", r.Op, r.Size, r.Parallelism, "-", "-", r.NTTMElemsPerSec)
	}

	const chainRows = 8192
	var seed gperm.State
	seed[0] = 9
	params := stark.DefaultParams
	params.Parallelism = 1
	// Warm twiddles, ladders, and the scratch pools so the measured
	// run is the steady-state prover.
	if _, err := fastagg.Prove(seed, chainRows, params); err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	proof, err := fastagg.Prove(seed, chainRows, params)
	if err != nil {
		log.Fatal(err)
	}
	proveMs := ms(time.Since(t0))
	t0 = time.Now()
	if err := fastagg.Verify(proof, params); err != nil {
		log.Fatal(err)
	}
	verifyMs := ms(time.Since(t0))
	r := KernelRow{Op: "agg_chain", Size: chainRows, Parallelism: 1, AggProofMs: proveMs, AggVerifyMs: verifyMs}
	rows = append(rows, r)
	fmt.Printf("%-12s %8d %12d %9.1f ms %9.1f ms %14s\n",
		r.Op, r.Size, r.Parallelism, proveMs, verifyMs, "-")
	fmt.Println()
	return rows
}

// kernelStageSplit prints where the specialized chain prover's time
// goes — the stark substages (lde, commit, composition, fri) via the
// stark.Params.Observer hook.
func kernelStageSplit() {
	fmt.Println("--- specialized chain (fastagg n=8192) STARK substages ---")
	var seed gperm.State
	seed[0] = 9
	params := stark.DefaultParams
	params.Parallelism = 1
	if _, err := fastagg.Prove(seed, 8192, params); err != nil { // warm-up
		log.Fatal(err)
	}
	col := &stageCollector{}
	params.Observer = col
	t0 := time.Now()
	if _, err := fastagg.Prove(seed, 8192, params); err != nil {
		log.Fatal(err)
	}
	wall := ms(time.Since(t0))
	var attributed float64
	for _, s := range stark.Stages {
		d := ms(col.d[s])
		attributed += d
		fmt.Printf("%-16s  %10.1f ms  %6.1f%%\n", s, d, 100*d/wall)
	}
	fmt.Printf("%-16s  %10.1f ms  %6.1f%% (trace build + transcript)\n",
		"unattributed", wall-attributed, 100*(wall-attributed)/wall)
	fmt.Printf("%-16s  %10.1f ms\n\n", "wall", wall)
}
