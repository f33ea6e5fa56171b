# Development gates. `make ci` is the full pre-merge pipeline; the
# individual targets exist so the expensive steps can be run alone.

GO ?= go

.PHONY: ci vet build test race race-synctest finish-stress chaos-smoke tcp-smoke workers-seq bench-check table2-check fuzz bench counts

ci: vet build race race-synctest finish-stress chaos-smoke tcp-smoke workers-seq bench-check table2-check

# go vet, then a gofmt gate: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, twice. No -run lists: a regex
# silently stops matching a renamed test.
# The tcp tests SIGKILL a real worker mid-dispatch and stall a peer
# against the write deadline; the lossy compressor's max-error is a CAS
# loop hit from every place.
race:
	$(GO) test -race -count=2 ./...

# The failure detector's latency bound, no-false-positive and
# flapping-suppression properties under virtual time (asynctimerchan=0 is
# required by synctest until the go directive passes 1.23).
race-synctest:
	GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0 $(GO) test -race -run 'Synctest' ./internal/apgas/transport/

# The resilient-finish ledger's kill-versus-spawn races, repeated under
# the race detector: the refused-fork tests 2000 times, the shard's
# event-order enumeration and the concurrent-kill stress 100 times, in
# both finish modes. The -list check fails the target if a rename leaves
# a -run pattern matching fewer tests than it names.
FINISH_STRESS = TestRefusedForkCounter|TestRefusedLocalFork|TestShardEventOrders|TestFinishModeStress
finish-stress:
	@n=$$($(GO) test -list '^($(FINISH_STRESS))$$' ./internal/apgas | grep -c '^Test'); \
	if [ "$$n" -ne 4 ]; then echo "finish-stress: $$n of the 4 tests found"; exit 1; fi
	$(GO) test -race -count=2000 -run '^(TestRefusedForkCounter|TestRefusedLocalFork)$$' ./internal/apgas
	$(GO) test -race -count=100 -run '^(TestShardEventOrders|TestFinishModeStress)$$' ./internal/apgas

# A short fixed-seed chaos campaign over every benchmark application:
# one kill inside a checkpoint commit plus one during the restore that
# follows. -chaos-strict fails the target if any run does not recover
# and reproduce the failure-free iterate. The second campaign stores
# erasure-coded (d=3, p=2) on 5 places with 2 spares: one kill, then two
# in a later checkpoint window. The read-only inputs survive the double
# kill only if the first restore's repair moved the dead place's shards
# onto its replacement. The third runs the same store with its double
# kill after the iteration-2 restore and before the iteration-4
# checkpoint: a restore is not followed by a checkpoint, so the commit
# survives only if the restore's own repair rebuilt the first victim's
# shards. The fourth runs replace-elastic on the same store with no
# reserved spares, so every replacement comes from a refill of the spare
# pool: the commit kill's restore is itself hit by a kill, and the retry
# must draft the place the doomed attempt created (one refill for the
# second victim alone); the later double kill then refills two places in
# one plan.
chaos-smoke:
	$(GO) run ./cmd/rgmlbench -q -iters 6 -ckpt 2 -scale 0.05 -seeds 7 -chaos-strict \
		-chaos "kill(point=commit,iter=2,place=1);kill(point=restore,place=3)" chaos > /dev/null
	$(GO) run ./cmd/rgmlbench -q -iters 6 -ckpt 2 -scale 0.05 -seeds 7 -chaos-strict \
		-placement erasure -shards 3,2 -chaos-places 5 -chaos-mode replace-redundant -chaos-spares 2 \
		-chaos "kill(iter=1,place=1);kill(iter=3,place=2,span=2)" chaos > /dev/null
	$(GO) run ./cmd/rgmlbench -q -iters 6 -ckpt 2 -scale 0.05 -seeds 7 -chaos-strict \
		-placement erasure -shards 3,2 -chaos-places 5 -chaos-mode replace-redundant -chaos-spares 2 \
		-chaos "kill(iter=2,place=1);kill(iter=3,place=2,span=2)" chaos > /dev/null
	$(GO) run ./cmd/rgmlbench -q -iters 6 -ckpt 2 -scale 0.05 -seeds 7 -chaos-strict \
		-placement erasure -shards 3,2 -chaos-places 5 -chaos-mode replace-elastic \
		-chaos "kill(point=commit,iter=2,place=1);kill(point=restore,place=3);kill(iter=3,place=2,span=2)" chaos > /dev/null
	@echo "chaos-smoke: all campaigns survived and verified"

# Multi-process smoke: PageRank over the tcp transport (3 worker
# processes) with one worker SIGKILLed mid-run, once per restore mode
# below. Each run must detect the death by heartbeat (no administrative
# mark), restore from the last checkpoint, and finish; rgmlrun exits
# non-zero if no restore happened or if no registered kernel executed
# inside a worker process (-min-worker-tasks: the distributed data plane
# must actually engage). Each run's final-iterate hash must then equal a
# -transport local run of the same config: failure-free for
# replace-elastic (the benchmark's mode, which adopts the standby worker as
# the replacement and keeps the survivors' resident blocks), and with the
# same kill for shrink, whose recovered run sums over three places instead
# of four. The replace-elastic run also fails unless its replacement place
# was the standby (transport.tcp.standby.adopted >= 1): recovery must
# start no process. A LogReg leg then runs replace-elastic with the same
# kind of kill, so TransMultVec's worker kernel, the score reuse across
# steps and the restore that clears it are checked against the
# failure-free local iterate too.
TCP_SMOKE = -app pagerank -places 4 -size 200 -iters 8 -ckpt 2
TCP_SMOKE_LOGREG = -app logreg -places 4 -size 200 -iters 8 -ckpt 2 -mode replace-elastic
tcp-smoke:
	@set -e; \
	hash() { out=$$($(GO) run ./cmd/rgmlrun "$$@") || exit 1; echo "$$out" | sed -n 's/^  final iterate: //p'; }; \
	same() { if [ -z "$$1" ] || [ "$$1" != "$$2" ]; then \
		echo "tcp-smoke: $$3: tcp final iterate '$$1', local '$$2'"; exit 1; fi; }; \
	got=$$(hash -transport tcp $(TCP_SMOKE) -kill-proc-iter 4 -min-worker-tasks 1); \
	want=$$(hash $(TCP_SMOKE) -kill-iter 4); \
	same "$$got" "$$want" shrink; \
	out=$$($(GO) run ./cmd/rgmlrun -transport tcp $(TCP_SMOKE) -mode replace-elastic -kill-proc-iter 4 -min-worker-tasks 1 -metrics -) || exit 1; \
	got=$$(echo "$$out" | sed -n 's/^  final iterate: //p'); \
	adopted=$$(echo "$$out" | sed -n 's/^  transport\.tcp\.standby\.adopted  *//p'); \
	if [ "$${adopted:-0}" -lt 1 ]; then \
		echo "tcp-smoke: replace-elastic: transport.tcp.standby.adopted '$$adopted', want >= 1"; exit 1; fi; \
	want=$$(hash $(TCP_SMOKE) -mode replace-elastic); \
	same "$$got" "$$want" replace-elastic; \
	got=$$(hash -transport tcp $(TCP_SMOKE_LOGREG) -kill-proc-iter 4 -min-worker-tasks 1); \
	want=$$(hash $(TCP_SMOKE_LOGREG)); \
	same "$$got" "$$want" "logreg replace-elastic"
	@echo "tcp-smoke: recovered from real worker-process kills with worker-side compute, an adopted standby and bitwise-equal iterates"

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

# Table II is static analysis of internal/apps, so it is deterministic: the
# committed results/table2.txt must equal a fresh one, or an app edit left
# it stale.
table2-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/rgmlbench -q -out "$$tmp" table2 > /dev/null && \
	diff -u results/table2.txt "$$tmp/table2.txt" && echo "table2-check: results/table2.txt is current"

# Short fuzz pass over the snapshot and tcp wire-format decoders and the
# checksumming encoder (the committed f.Add seeds always run as part of
# `make test`; this explores further).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzFloat64s -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzInts -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzCompressFloat64s -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzCompressInts -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzEncoder -fuzztime=30s ./internal/codec/
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=30s ./internal/block/
	$(GO) test -run=NONE -fuzz=FuzzFrameDecode -fuzztime=30s ./internal/apgas/transport/tcp/

# The performance benchmark (BENCHMARK.json): five workloads on the local
# and tcp backends, bitwise-verified, compared with bounds. The paper's
# tables and figures are `go run ./cmd/rgmlbench -out results all`.
bench:
	bash benchmark/run.sh

# The size counts every simplification quotes before and after (ROADMAP's
# standing constraint). Not part of ci: it checks nothing.
GO_SRC = find . -name '*.go' ! -path './benchmark/*'
counts:
	@printf 'non-test Go lines outside benchmark/: '; $(GO_SRC) ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'test Go lines outside benchmark/:     '; $(GO_SRC) -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'benchmark/ Go lines:                  '; find benchmark -name '*.go' -print0 | xargs -0 cat | wc -l
	@printf 'exported With* options:               '; $(GO_SRC) ! -name '*_test.go' -print0 | xargs -0 grep -hE '^func With[A-Z]' | wc -l
	@printf 'registered CLI flags:                 '; find cmd internal/cliflags -name '*.go' ! -name '*_test.go' -print0 | \
		xargs -0 grep -ohE '\b(fs|flag)\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(Var)?\(' | wc -l
