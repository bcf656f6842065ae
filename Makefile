GO ?= go
FUZZTIME ?= 10s

.PHONY: build vet test purego race fuzz farm check bench bench-parallel bench-commit profile verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Portable lane: the commitment packages built without the SHA-NI
# assembly, so the golden receipt is also checked on the
# sha256.Sum256 fallback every non-amd64 build runs.
purego:
	$(GO) test -tags purego ./internal/hashk ./internal/merkle ./internal/zkvm

# Race lane: the packages that fan work out across goroutines — the
# prover worker pool, the segmented (continuation) proving crew, the
# epoch pipeline, the prover farm's dispatcher and workers, the
# metrics registry, the HTTP layer, the sharded UDP ingest pipeline,
# the checkpointing ledger plus the light-client sync that reads it,
# the STARK math kernel (shared twiddle/ladder caches, pooled
# scratch, chunk-parallel LDE/composition/FRI), and the SHA-256
# commitment kernel.
race:
	$(GO) test -race ./internal/hashk ./internal/zkvm ./internal/core ./internal/api ./internal/remote ./internal/merkle ./internal/obs ./internal/ingest ./internal/ledger ./internal/lightsync ./internal/field ./internal/poly ./internal/fri ./internal/stark ./internal/fastagg

# Fuzz lane: each network/storage-facing decoder gets a short
# randomized run on top of its committed seed + regression corpus,
# plus the NTT round-trip property (the vectorized kernel against the
# retained serial reference) and the two-lane SHA-256 kernel against
# crypto/sha256. `go test -fuzz` takes one target per invocation, so
# this is nine runs; budget with FUZZTIME (default 10s each).
fuzz:
	$(GO) test ./internal/netflow -run='^$$' -fuzz=FuzzWireCodecs -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/remote -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/remote -run='^$$' -fuzz=FuzzFarmFrames -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/remote -run='^$$' -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzDecodeProgram -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/zkvm -run='^$$' -fuzz=FuzzUnmarshalReceipt -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ingest -run='^$$' -fuzz=FuzzDatagram -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/poly -run='^$$' -fuzz=FuzzNTTRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hashk -run='^$$' -fuzz=FuzzSum2 -fuzztime=$(FUZZTIME)

# Farm lane: the prover-farm fault-injection suite, run twice — the
# failover paths (requeue, steal, duplicate suppression) are timing
# sensitive by nature, so one green run is not evidence enough.
farm:
	$(GO) test ./internal/remote -run='TestFarmFault' -count=2

# The default pre-merge gate. The fuzz lane runs last so the cheap
# deterministic checks fail fast.
check: build vet test purego race farm fuzz

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The worker-pool / pipeline benchmarks behind the determinism tests.
bench-parallel:
	$(GO) test -bench='ProveParallel|PipelinedAggregation' -run=^$$ .

# Commit-path benchmarks with allocation counts: the SHA-256 kernel
# per committed shape (49-byte packed product/boundary leaf, 65-byte
# node, 85-byte packed memory leaf, 405-byte packed trace leaf) on one
# lane, on two lanes and through sha256.Sum256, the
# whole-level and leaf hashes, the Merkle arena build, the NTT
# kernel, and the fused prover pipeline. Compare against EXPERIMENTS.md
# E14 (allocs/op), E22 (ns per hash) and E23 (packed leaves). Finishes by regenerating the committed benchmark
# baseline (BENCH_PR10.json: E1 sweep + stage split + E15 continuation
# sweep + E16 ingest throughput sweep + E17 light-client sync + E18
# prover farm + E20 math kernel); gate a branch against it with
# `zkflow-benchdiff BENCH_PR10.json fresh.json`.
bench-commit:
	$(GO) test -bench='Sum|HashLevel|Leaf2' -benchmem -run=^$$ ./internal/hashk
	$(GO) test -bench='BuildHashes|Build1024' -benchmem -run=^$$ ./internal/merkle
	$(GO) test -bench='NTTInto|Butterflies' -benchmem -run=^$$ ./internal/poly ./internal/field
	$(GO) test -bench='ProveParallel/parallelism=1' -benchmem -run=^$$ .
	$(GO) run ./cmd/zkflow-bench -json BENCH_PR10.json

# Guest cycle profile at the benchmark's epoch_stream shape (EXPERIMENTS.md
# E9 and E24): cycles and memory ops per labelled guest region, then rows
# and memory entries per record.
profile:
	$(GO) run ./cmd/zkflow-bench -exp profile

verify: build vet test race
