# Distributed Pagerank for P2P Systems — build/test/bench driver.
GO ?= go

.PHONY: all build vet fmt-check lint lint-graphs test race race-engines-smoke chaos chaos-membership chaos-partition chaos-overload fuzz fuzz-csr bench bench-pipeline bench-wire bench-csr bench-e2e bench-check loc examples ci

all: build

build:
	$(GO) build ./...

# go vet's copylocks check is what keeps the typed atomics
# (atomic.Uint64, Int64, Bool) from being copied; dprlint has no rule for it.
vet:
	$(GO) vet ./...

# gofmt gate: any file gofmt would rewrite is a failure. Lint fixtures
# (testdata) are matched against by line and stay as written.
fmt-check:
	@out=$$(find . -name '*.go' ! -path '*/testdata/*' ! -path './.*' -print0 | xargs -0 gofmt -l); \
		if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# dprlint: the repo's own invariant checkers (determinism, wire
# deadlines, lock hygiene, hot-path allocations, lock ordering, codec
# symmetry). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/dprlint

# Same findings as `lint`, plus the call graph and mutex-acquisition
# graph written to results/ as dot + JSON. These are the proof
# artifacts for the lockorder and hotpath-transitive rules: the lock
# graph in particular is what "the wire/p2p mutex graph is acyclic" means.
lint-graphs:
	$(GO) run ./cmd/dprlint -graphs results

# -shuffle=on randomizes test order each run, so accidental
# inter-test coupling (shared globals, leftover files) surfaces early.
test:
	$(GO) test -shuffle=on ./...

# Race-check the concurrent hot paths (pass pipeline, the engine seam,
# p2p substrate, fault-tolerant wire layer). The engine equivalence
# sweeps, residual bound and threshold-schedule ablation, core's
# refused-checkpoint sweep and p2p's retry-queue model test run on one
# goroutine and skip themselves under -race; `ci` runs them without.
race:
	$(GO) test -race ./internal/core ./internal/engine ./internal/p2p ./internal/wire ./internal/telemetry

# Fault-injection suite: resets, drops, partitions and crash/restart
# cycles under the race detector. -count=1 defeats the test cache so
# the nondeterministic schedules actually rerun.
chaos:
	$(GO) test -race -count=1 -run Chaos ./internal/wire

# Dynamic-membership gate: permanent leaves, joins, failure-detector
# auto-eviction and the kill-one/join-one chaos scenario, under -race.
chaos-membership:
	$(GO) test -race -count=1 -run 'Membership|Leave|Join|FailureDetector' ./internal/wire

# Partition-tolerance gate: the 4/2 split-brain scenario (quorum
# eviction on the majority side, refused eviction on the minority,
# the heal's hand-over, also after a Leave and a Join during the cut),
# the one-way-cut refusal, and the epoch-fencing
# reject/requeue paths, under -race.
chaos-partition:
	$(GO) test -race -count=1 -run 'Partition|Epoch' ./internal/wire

# Overload-protection gate: the firehose scenario (lossless coalescing,
# at most one unacked frame per stream, no false eviction of a
# slow-but-alive peer), a Leave completing promptly under that load
# through the one inbox, convergence over a delayed link, and the wake
# rule of a stream whose frame is in flight, under -race.
chaos-overload:
	$(GO) test -race -count=1 -run Overload ./internal/wire

# Engine-race smoke gate: every registered solver engine (pass,
# chaotic, diffusion) races on one small seeded graph; asserts every
# engine reaches the shared accuracy target and the diffusion engine
# beats the pass engine on work-to-target. -count=1
# defeats the cache so the gate actually reruns.
race-engines-smoke:
	$(GO) test -count=1 -run TestRaceEnginesSmoke ./internal/race

# Short fuzz bursts over the checkpoint decoder (truncated/corrupt
# input), the frame codecs, the batch payload's decoder and its round
# trip over any ordered documents and float64 bit patterns, the row
# codec every snapshot format is built on, the ranker's document → row
# directory, and the retry queue, the ranker and a stream's frames
# through the sender's and the reader's per-connection heads against
# their models (the input is the script of operations). A script target's
# seeds are scripts of several KB, which the default minimization (60 s
# an input) would spend the whole burst shrinking: -fuzzminimizetime
# keeps the search running.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRoundTrip$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRows$$' -fuzztime 30s ./internal/p2p
	$(GO) test -run '^$$' -fuzz '^FuzzDocIndex$$' -fuzztime 30s ./internal/p2p
	$(GO) test -run '^$$' -fuzz '^FuzzRetryQueueModel$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/p2p
	$(GO) test -run '^$$' -fuzz '^FuzzRankerModel$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/p2p

# Fuzz the compressed-graph (DPRZ) decoder: arbitrary bytes must error
# or decode to a self-consistent graph, never panic.
fuzz-csr:
	$(GO) test -run '^$$' -fuzz FuzzDecodeCSR -fuzztime 30s ./internal/csr

bench:
	$(GO) test -run XXX -bench . -benchmem ./...

# The sharded pass-pipeline benchmark behind results/BENCH_passpipeline.json.
bench-pipeline:
	$(GO) test -run XXX -bench BenchmarkRunPassParallel -benchmem .

# The three per-update stages of the live cluster's rank-update path —
# ranker fold (and the per-row cost of a threshold-stage sweep, the
# per-out-link cost of building a peer's shard, which set-up pays, and
# one document → row lookup on a uniform and on a skewed shard),
# the retry queue from enqueue to merged and ordered frame, and its
# radix sort alone (internal/p2p), and the batch codec, with its bytes
# per update (internal/wire) — with allocation counts, plus the checkpoint codec's
# bytes and encode/decode ns per row, and NewCluster's set-up ns per
# document and allocations (100k documents, 8 peers) at -cpu 1 and 2:
# the peers built one after another, and two at a time. BENCHTIME=1x is
# what CI runs, so they cannot rot.
BENCHTIME ?= 1s
bench-wire:
	$(GO) test -run XXX -bench 'BenchmarkRankerFold|BenchmarkRankerRelax|BenchmarkRankerBuild|BenchmarkDocIndexFind|BenchmarkRetryQueueDeferMergeDrainN|BenchmarkFrameSort' -benchmem -benchtime $(BENCHTIME) ./internal/p2p
	$(GO) test -run XXX -bench 'BenchmarkBatchEpochCodec|BenchmarkSnapshotCodec' -benchmem -benchtime $(BENCHTIME) ./internal/wire
	$(GO) test -run XXX -bench 'BenchmarkNewCluster' -cpu 1,2 -benchmem -benchtime $(BENCHTIME) ./internal/wire

# The compressed substrate's read path, nanoseconds per Cursor.OutLinks
# call over the three access shapes the engines produce: every node
# ascending (a dense pass), one in eight ascending (a late pass),
# random (ranker drivers). Also run by CI at BENCHTIME=1x.
bench-csr:
	$(GO) test -run XXX -bench 'BenchmarkCursor' -benchmem -benchtime $(BENCHTIME) ./internal/csr

# The repo's end-to-end benchmark (BENCHMARK.json, bench/README.md):
# every workload in its own process, untraced and then traced for the
# per-layer table.
bench-e2e:
	bash bench/run.sh --workload all

# Bench-regression gate: reruns the workers=1 pipeline benchmark and
# fails on >25% drift from results/BENCH_passpipeline.json, then
# checks the telemetry-instrumented variant stays within its <3%
# overhead budget (results/BENCH_telemetry.json records a run). The
# BigGraph gate reruns the 100k-doc workload on both adjacency
# substrates against results/BENCH_bigraph.json: compressed payload
# must hold <= 1.5 bytes/edge, ranks must stay bit-identical to the
# plain representation, throughput within 25% of baseline.
bench-check:
	DPR_BENCH_CHECK=1 $(GO) test -run 'TestBenchRegressionGate|TestBigGraphRegressionGate' -count=1 -v .

# Non-test Go lines per package and in total: ROADMAP aim 2 asks for
# this number to go down, so it is one command. Lint fixtures
# (testdata) are data, not code, and are left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
		| sort -k2

# Run every example program to completion; a non-zero exit (a
# log.Fatal, a panic) fails the target. examples/incremental and
# examples/evolving drive every dpr.Session edit. A few seconds with the builds; stdout
# is dropped, errors still print.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Full gate: what a CI job should run. internal/lint is static
# analysis and starts no goroutines: its tests skip themselves under
# -race and run once here without the detector. So do the one-goroutine
# sweeps: the 10k and 100k engine equivalence, the round driver's
# residual bound and threshold-schedule ablation, core's
# refused-checkpoint sweep, p2p's retry-queue model and the
# execution-time seed sweep.
ci:
	$(MAKE) fmt-check && $(GO) vet ./... && $(GO) build ./... && $(GO) run ./cmd/dprlint -graphs results \
		&& $(MAKE) examples \
		&& $(GO) test -race -shuffle=on ./... \
		&& $(GO) test -count=1 ./internal/lint \
		&& $(GO) test -count=1 -run 'Equivalence10k|Equivalence100k|ResidualBoundsError|ThresholdScheduleSavesMessages|RefusedCheckpointLeavesEngineUntouched|RetryQueueMatchesModel|ExecTimeValidation' ./internal/engine ./internal/core ./internal/p2p ./internal/experiments \
		&& $(GO) test -race -count=1 -run Chaos ./internal/wire \
		&& $(GO) test -race -count=1 -run 'Membership|Leave|Join|FailureDetector' ./internal/wire \
		&& $(GO) test -race -count=1 -run 'Partition|Epoch' ./internal/wire \
		&& $(GO) test -race -count=1 -run Overload ./internal/wire \
		&& $(GO) test -count=1 -run TestRaceEnginesSmoke ./internal/race \
		&& $(MAKE) bench-wire BENCHTIME=1x \
		&& $(MAKE) bench-csr BENCHTIME=1x
