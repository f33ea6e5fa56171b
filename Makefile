# Development gates. `make ci` is the full pre-merge pipeline; the
# individual targets exist so the expensive steps can be run alone.

GO ?= go

.PHONY: ci vet build test race race-recovery race-chaos race-delta race-finish race-store race-transport race-dataplane race-compress chaos-smoke tcp-smoke workers-seq bench-check fuzz bench bench-checkpoint bench-kernels bench-delta bench-finish bench-store bench-compress

ci: vet build race race-recovery race-chaos race-delta race-finish race-store race-transport race-dataplane race-compress chaos-smoke tcp-smoke workers-seq bench-check bench-checkpoint bench-kernels bench-delta bench-finish bench-store bench-compress

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Extra -race iterations over the recovery-critical packages: the
# executor's multi-failure paths, the application store's checkpoint
# window, and the runtime's ledger/instrumentation are where the
# interleavings live.
race-recovery:
	$(GO) test -race -count=2 ./internal/core/ ./internal/apgas/ ./internal/snapshot/

# The chaos campaign tests again under -race: the burst kills and the
# commit/restore-window kills drive the recovery machinery from injection
# points that run concurrently with the ledger and the replica writes.
race-chaos:
	$(GO) test -race -count=2 -run 'TestChaos' ./internal/bench/
	$(GO) test -race -count=2 ./internal/chaos/

# Extra -race iterations over the delta-checkpointing paths: entry
# carry-forward shares buffers across snapshots, and partial restore
# validates survivor state concurrently with the loads — both are new
# interleavings on top of the recovery machinery.
race-delta:
	$(GO) test -race -count=2 -run 'Delta|Partial|ReadOnly|Retain' ./internal/snapshot/ ./internal/core/ ./internal/dist/ ./internal/bench/

# Extra -race iterations over the sharded resilient-finish paths: the
# per-place shard goroutines, the local fast-path counters, the batched
# fork delivery, and place death broadcast across shards all interleave
# with overlapping finishes — plus the central-vs-sharded fingerprint
# invariance check under the same seeds.
race-finish:
	$(GO) test -race -count=2 -run 'FinishMode|Sharded|LedgerQueue|Refused' ./internal/apgas/
	$(GO) test -race -count=2 -run 'TestKillFingerprintFinishModeInvariance' ./internal/chaos/
	$(GO) test -race -count=2 -run 'TestFinishBenchSmoke' ./internal/bench/

# Extra -race iterations over the redundancy-policy store paths: the
# Reed-Solomon codec's parallel shard reconstruction, replicated and
# erasure-coded puts racing the repair pass, degraded-entry tracking
# under injected replica drops, and the executor-level double-kill
# sweep that pins the loud-loss/recovery contract per policy.
race-store:
	$(GO) test -race -count=2 -run 'TestGF|TestRS' ./internal/codec/
	$(GO) test -race -count=2 -run 'Replicate|Erasure|Repair|Degraded|PolicyClamp|SinglePlace' ./internal/snapshot/
	$(GO) test -race -count=2 -run 'TestExecutor(Repair|Delta|DoubleKill|NoBackup|PartialRestore|SinglePlace)' ./internal/core/
	$(GO) test -race -count=2 -run 'Span' ./internal/chaos/

# Extra -race iterations over the transport seam: the tcp backend's
# frame reader/heartbeat/detector goroutines racing administrative
# kills, the runtime's transport-death broadcast racing Kill, and the
# cross-backend invariance oracle (same chaos schedule on local and tcp
# must give identical kill fingerprints and bitwise-equal iterates).
# The synctest leg pins the failure detector's latency bound,
# no-false-positive and flapping-suppression properties under virtual
# time (asynctimerchan=0 is required by synctest until the go directive
# passes 1.23).
race-transport:
	$(GO) test -race -count=2 ./internal/apgas/transport/... ./internal/cliflags/
	$(GO) test -race -count=2 -run 'Transport' ./internal/apgas/
	$(GO) test -race -count=2 -run 'CrossBackend|RealProcessKill' ./internal/bench/
	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 $(GO) test -race -run 'Synctest' ./internal/apgas/transport/

# Extra -race iterations over the registered-kernel data plane: the
# kernel registry/store, coordinator-side dispatch (mirror, fallback,
# forced puts) racing kills, the whole tcp package — wire v3 framing,
# the executor loop with a real worker SIGKILLed mid-dispatch, write
# deadlines against a stalled peer, the kill/replace leak check — and
# the dist kernels' ship-once and bitwise-equality contracts. The tcp
# package runs whole: a -run regex silently stops matching renamed tests.
race-dataplane:
	$(GO) test -race -count=2 ./internal/apgas/kernel/
	$(GO) test -race -count=2 -run 'KernelDispatch' ./internal/apgas/
	$(GO) test -race -count=2 ./internal/apgas/transport/tcp/
	$(GO) test -race -count=2 -run 'MultVecKernel|RestoreBumps' ./internal/dist/

# Extra -race iterations over the compression seam: the chunked float
# codec compresses and inflates through the shared worker pool and the
# flate/buffer pools, the lossy compressor's max-error tracking is a
# CAS loop hit from every place, and the compressed chaos/delta/partial
# paths exercise the per-snapshot compressor from concurrent places.
race-compress:
	$(GO) test -race -count=2 -run 'Compress|Lossy|Lossless' ./internal/codec/ ./internal/dist/ ./internal/bench/

# A short fixed-seed chaos campaign over every benchmark application:
# one kill inside a checkpoint commit plus one during the restore that
# follows. -chaos-strict fails the target if any run does not recover
# and reproduce the failure-free iterate.
chaos-smoke:
	$(GO) run ./cmd/rgmlbench -q -iters 6 -ckpt 2 -scale 0.05 -seeds 7 -chaos-strict \
		-chaos "kill(point=commit,iter=2,place=1);kill(point=restore,place=3)" chaos > /dev/null
	@echo "chaos-smoke: all campaigns survived and verified"

# Multi-process smoke: PageRank over the tcp transport (3 worker
# processes) with one worker SIGKILLed mid-run. The run must detect the
# death by heartbeat (no administrative mark), restore from the last
# checkpoint, and finish; rgmlrun exits non-zero if no restore happened
# or if no registered kernel executed inside a worker process
# (-min-worker-tasks: the distributed data plane must actually engage,
# not silently fall back to coordinator-resident execution).
tcp-smoke:
	$(GO) run ./cmd/rgmlrun -transport tcp -app pagerank -places 4 \
		-size 200 -iters 8 -ckpt 2 -kill-proc-iter 4 -min-worker-tasks 1 > /dev/null
	@echo "tcp-smoke: recovered from a real worker-process kill with worker-side compute"

# The whole suite again with the kernel worker pool pinned to one worker:
# every parallel kernel and tree collective degenerates to its serial
# schedule, so any result drift or pool-only bug shows up as a diff
# against the default-worker run above.
workers-seq:
	RGML_WORKERS=1 $(GO) test -count=1 ./...

# The benchmark is a module of its own (benchmark/go.mod), so root
# `go vet ./...` and `go test ./...` never compile it; this leg does,
# against the internal packages as they are in this checkout.
bench-check:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Short fuzz pass over the snapshot and tcp wire-format decoders (the
# committed f.Add seeds always run as part of `make test`; this explores
# further).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzFloat64s -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzInts -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzCompressFloat64s -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzCompressInts -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=30s ./internal/block/
	$(GO) test -run=NONE -fuzz=FuzzFrameDecode -fuzztime=30s ./internal/apgas/transport/tcp/

# Full benchmark sweep (paper figures/tables + ablations).
bench:
	$(GO) test -bench=. -benchmem ./...

# The checkpoint fast-path benchmarks backing BENCH_checkpoint.json.
bench-checkpoint:
	$(GO) test -run=NONE -bench='BenchmarkCodec(Encode|Decode)' -benchmem ./internal/codec/
	$(GO) test -run=NONE -bench='BenchmarkSnapshotSave' -benchmem ./internal/dist/

# The parallel kernel-engine benchmarks backing BENCH_kernels.json.
bench-kernels:
	$(GO) test -run=NONE -bench='BenchmarkKernel' -benchmem ./internal/la/ ./internal/dist/

# The delta-checkpointing comparison backing BENCH_delta.json: full vs
# delta checkpoint traffic and partial-restore traffic for LinReg with
# inputs checkpointed every interval, one failure repaired by a spare.
bench-delta:
	$(GO) run ./cmd/rgmlbench -q -places 2,4,8 delta > BENCH_delta.json
	@echo "bench-delta: wrote BENCH_delta.json"

# The resilient-finish architecture comparison backing BENCH_finish.json:
# central place-zero ledger vs sharded home-based bookkeeping — fork/join
# throughput, finish-barrier latency, resilient overhead vs place count,
# and the cross-mode chaos fingerprint/weights invariance oracle.
bench-finish:
	$(GO) run ./cmd/rgmlbench -q finish > BENCH_finish.json
	@echo "bench-finish: wrote BENCH_finish.json"

# The redundancy-policy comparison backing BENCH_store.json: storage
# overhead and reconstruction throughput for replication factors vs
# Reed-Solomon erasure geometries, plus the correlated double-kill
# survival matrix (k=2 loses loudly; k=3 and erasure recover and verify).
bench-store:
	$(GO) run ./cmd/rgmlbench -q store > BENCH_store.json
	@echo "bench-store: wrote BENCH_store.json"

# The checkpoint-compression sweep backing BENCH_compress.json: shipped
# checkpoint bytes and iterations-to-converge for none vs lossless vs
# error-bounded lossy at several bounds, for a dense (LinReg) and a
# sparse (PageRank) application, each run through a mid-computation kill
# and restore. The sweep hard-fails if lossless is not bitwise-equal to
# the uncompressed baseline or a lossy error exceeds its bound.
bench-compress:
	$(GO) run ./cmd/rgmlbench -q compress > BENCH_compress.json
	@echo "bench-compress: wrote BENCH_compress.json"
