# Development gates. `make ci` is the full pre-merge pipeline; the
# individual targets exist so the expensive steps can be run alone.

GO ?= go

.PHONY: ci vet build test race race-synctest chaos-smoke tcp-smoke workers-seq bench-check fuzz bench bench-checkpoint bench-kernels bench-delta bench-finish bench-store bench-compress

ci: vet build race race-synctest chaos-smoke tcp-smoke workers-seq bench-check bench-checkpoint bench-kernels bench-delta bench-finish bench-store bench-compress

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, twice. No -run lists: a regex
# silently stops matching a renamed test.
# Delta checkpoints share entry buffers across snapshots; the tcp tests
# SIGKILL a real worker mid-dispatch and stall a peer against the write
# deadline; the lossy compressor's max-error is a CAS loop hit from every
# place.
race:
	$(GO) test -race -count=2 ./...

# The failure detector's latency bound, no-false-positive and
# flapping-suppression properties under virtual time (asynctimerchan=0 is
# required by synctest until the go directive passes 1.23).
race-synctest:
	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 $(GO) test -race -run 'Synctest' ./internal/apgas/transport/

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
# (-min-worker-tasks: the distributed data plane must actually engage).
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
