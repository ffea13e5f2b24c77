# Distributed Pagerank for P2P Systems — build/test/bench driver.
GO ?= go

.PHONY: all build vet fmt-check lint lint-graphs test race race-engines-smoke chaos chaos-membership chaos-partition chaos-overload fuzz fuzz-csr bench bench-pipeline bench-wire bench-csr bench-e2e bench-check loc ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: any file gofmt would rewrite is a failure. Lint fixtures
# (testdata) are matched against by line and stay as written.
fmt-check:
	@out=$$(find . -name '*.go' ! -path '*/testdata/*' ! -path './.*' -print0 | xargs -0 gofmt -l); \
		if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# dprlint: the repo's own invariant checkers (determinism, wire
# deadlines, lock hygiene, hot-path allocations, counter
# conservation, goroutine lifecycle, lock ordering, atomic access
# discipline, codec symmetry). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/dprlint

# Same findings as `lint`, plus the call graph and mutex-acquisition
# graph written to results/ as dot + JSON. These are the proof
# artifacts for the goroutinelife and lockorder rules: the lock graph
# in particular is what "the wire/p2p mutex graph is acyclic" means.
lint-graphs:
	$(GO) run ./cmd/dprlint -graphs results

# -shuffle=on randomizes test order each run, so accidental
# inter-test coupling (shared globals, leftover files) surfaces early.
test:
	$(GO) test -shuffle=on ./...

# Race-check the concurrent hot paths (pass pipeline, the engine seam,
# p2p substrate, fault-tolerant wire layer). The 100k engine
# equivalence sweep runs on one goroutine and skips itself under -race;
# `ci` runs it without.
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
# anti-entropy heal), the one-way-cut refusal, and the epoch-fencing
# reject/requeue paths, under -race.
chaos-partition:
	$(GO) test -race -count=1 -run 'Partition|Epoch' ./internal/wire

# Overload-protection gate: the firehose scenario (credit stalls,
# lossless coalescing, at most one unacked frame per stream, no false
# eviction of a slow-but-alive peer), the control-lane Leave-under-load
# check, convergence over a delayed link, and the wake rule of a stream
# whose frame is in flight, under -race.
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
# input), the frame codecs and the row codec every snapshot format is
# built on.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRows$$' -fuzztime 30s ./internal/p2p

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
# ranker fold (and the per-row cost of a threshold-stage sweep) and
# retry-queue coalesce + drain (internal/p2p), ordering a frame for the
# batch codec and the codec itself, with its bytes per update
# (internal/wire) — with allocation counts, plus the checkpoint codec's
# bytes and encode/decode ns per row. BENCHTIME=1x is
# what CI runs, so they cannot rot.
BENCHTIME ?= 1s
bench-wire:
	$(GO) test -run XXX -bench 'BenchmarkRankerFold|BenchmarkRankerRelax|BenchmarkRetryQueueDeferMergeDrainN' -benchmem -benchtime $(BENCHTIME) ./internal/p2p
	$(GO) test -run XXX -bench 'BenchmarkBatchEpochCodec|BenchmarkFrameSort|BenchmarkSnapshotCodec' -benchmem -benchtime $(BENCHTIME) ./internal/wire

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

# Full gate: what a CI job should run.
ci:
	$(MAKE) fmt-check && $(GO) vet ./... && $(GO) build ./... && $(GO) run ./cmd/dprlint -graphs results \
		&& $(GO) test -race -shuffle=on ./... \
		&& $(GO) test -count=1 -run Equivalence100k ./internal/engine \
		&& $(GO) test -race -count=1 -run Chaos ./internal/wire \
		&& $(GO) test -race -count=1 -run 'Membership|Leave|Join|FailureDetector' ./internal/wire \
		&& $(GO) test -race -count=1 -run 'Partition|Epoch' ./internal/wire \
		&& $(GO) test -race -count=1 -run Overload ./internal/wire \
		&& $(GO) test -count=1 -run TestRaceEnginesSmoke ./internal/race \
		&& $(MAKE) bench-wire BENCHTIME=1x \
		&& $(MAKE) bench-csr BENCHTIME=1x
