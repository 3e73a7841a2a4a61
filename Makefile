# Developer entry points. `make ci` is what the repository considers its
# gate: gofmt, vet, build (including every example), and the short test
# suite under the race detector (GOMAXPROCS is raised so the host
# fan-out really runs concurrently even on small machines).

GO ?= go

.PHONY: all fmt vet lint build examples test test-full race race-boundedcache race-suite race-resume race-serve race-dynamic race-gen race-par cover fuzz-smoke bench-smoke bench-pair loc ci

all: ci

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Stock vet, then the repository's own checks over the whole
# type-checked tree, test files included: TestLint runs the gxlint
# analyzers (determinism, nilgate, wiresize, clockcharge, directive — see
# DESIGN.md "Static analysis") over every package `go list -test ./...`
# reports, and TestDeadcode fails on an exported identifier under
# internal/ that only tests use, unless internal/lint/deadcode.allow
# lists it with a reason. Both are tests, so `go test ./...` runs them
# too. -count=1 because the test cache does not see what `go list` reads,
# so a cached pass could miss a file added elsewhere in the tree.
lint:
	$(GO) vet ./...
	$(GO) test -count=1 -run '^(TestLint|TestDeadcode)$$' ./internal/lint

build:
	$(GO) build ./...

# Builds every example, then runs the four that check themselves (under
# a second of work together), each exiting non-zero when its check fails:
# dynamic-graphs (incremental recomputation bit-identical to scratch and
# no slower at every batch boundary), fault-tolerance (the injected crash
# is raised and the resumed run is bit-identical to an uninterrupted
# one), custom-algorithm (every engine × accelerator cell agrees with the
# reference) and labelprop-graphx (the optimizations change no label).
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/dynamic-graphs
	$(GO) run ./examples/fault-tolerance
	$(GO) run ./examples/custom-algorithm
	$(GO) run ./examples/labelprop-graphx

test:
	$(GO) test -short ./...

# The full suite includes the heavy harness shape sweeps (several minutes).
test-full:
	$(GO) test ./...

race:
	GOMAXPROCS=8 $(GO) test -short -race ./...

# The bounded-cache determinism guarantee (dirty evictions spilled to the
# serialized phase boundary) is the one place agents could write shared
# engine state mid-phase; keep it pinned under the race detector even if
# the broader race target is ever narrowed.
race-boundedcache:
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestBoundedCache|TestReportsSumToAgentStats' ./internal/engine
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestAgentBoundedCacheMatchesUnbounded|TestDrainSpillUploadsAtBoundary' ./internal/gxplug

# Concurrent suite execution shares immutable graphs/partitionings across
# runs; the determinism pin (pool 1 == pool N, bit for bit) stays under
# the race detector even if the broader race target is ever narrowed.
race-suite:
	GOMAXPROCS=8 $(GO) test -race -run 'TestSuiteConcurrencyDeterminism' ./gx

# The fault-tolerance acceptance pin: a run killed at every superstep k
# and resumed from its on-disk checkpoint converges to the bit-identical
# final attributes and virtual makespan of an uninterrupted run, on both
# engines, with the checkpoint/resume machinery under the race detector.
race-resume:
	GOMAXPROCS=8 $(GO) test -race -run 'TestResumeBitIdentical' ./gx

# The serving layer runs one process-wide result cache under concurrent
# HTTP handlers, stream readers, and the executor worker; keep the gxd
# end-to-end path and the cache hammer pinned under the race detector.
# TestStreamDoneRace gets extra -count iterations: the done-event split it
# regresses against only reproduces under GOMAXPROCS > 1 with the race
# detector widening the completion window. So does TestServeRetention:
# retention must be applied before a job's done is visible, or a waiter
# can still find the job it evicts resident.
race-serve:
	GOMAXPROCS=8 $(GO) test -race ./internal/serve ./cmd/gxd
	GOMAXPROCS=8 $(GO) test -race -run 'TestStreamDoneRace' -count=3 ./internal/serve
	GOMAXPROCS=8 $(GO) test -race -run 'TestServeRetention' -count=20 ./internal/serve
	GOMAXPROCS=8 $(GO) test -race -run 'TestResultCache|TestSuiteResultCache' ./gx

# The dynamic-graph acceptance pin: incremental recomputation over a
# batch stream is bit-identical to from-scratch at every batch boundary
# (attrs digests, iteration counts) and never slower on the virtual
# clock, on both engines, for pagerank and cc, at pool sizes 1/2/4 —
# with the trajectory-replay machinery under the race detector. The
# boundary loop and the replay it drives live in the engine, so its own
# incremental-vs-scratch pin (trajectory equality included) runs too, and
# so does TestStreamBoundaryAllocs' stream — the two traces runStream
# carries from boundary to boundary, written over while node workers read
# the replayed one (its byte budget is only asserted without the race
# detector, which skews it). A replayed superstep gathers into its cone
# through the boundary's signature, each node into its own per-source
# scratch: the gather is held to the push walk it
# replaced and to zero allocations, and the ascending first-touch order it
# leaves is shown unobservable by permuting every buffer's at random.
# A stream's boundaries — graph version, partitioning, merge signature and
# dirty seed — are built once per DatasetCache and read by every run of
# the stream: two suites over one stream at pool 4, incremental and
# scratch entries mixed, must build each boundary exactly once, and a
# rerun on a warm cache allocates nothing per edge (that byte budget, too,
# is only asserted without the race detector).
race-dynamic:
	GOMAXPROCS=8 $(GO) test -race -run 'TestDynamicConformance|TestStreamBoundariesConcurrent|TestWarmStreamBoundaryAllocs' ./gx
	GOMAXPROCS=8 $(GO) test -race -run 'TestIncrementalMatchesScratch|TestStreamBoundaryAllocs|TestNativeGenMatchesOracle|TestNativeGenAllocatesNothing|TestFirstTouchOrderIsUnobservable' ./internal/engine

# Each gen kernel has one generation path: MSGGen writes into a reused
# scratch row, once per source run where Hints.SourceOnly is declared and
# once per edge otherwise. nativeGen finds its runs in the partitioning's
# run index and folds at each destination's slot in the result's slab;
# that plan is held to a map-based derivation of it, and Validate must
# reject each invariant broken in turn. Both kernels are held bit for bit to the
# per-edge loops they replaced, nativeGen to zero allocations, and every
# registered algorithm's MSGGen to its contract (same message whatever
# the scratch held; the SourceOnly half where declared) — the property
# that keeps executors handing it dirty scratch equal to the sequential
# reference. genKernel.chunk is the one place concurrent kernel calls
# share a slab (a launch's chunks run on the host helpers, each in its
# own window of the partials), so its oracle test runs several times at
# GOMAXPROCS 8. It reads its triplets in place from the agent's topology
# segment, in the wire form the agent plans them in: the planned bytes are
# held to the Triplet-slab encoder they replaced, and a row outside the
# block, met by whichever chunk, must fail the launch naming the lowest
# bad triplet. The daemons read that segment, which the agent rewrites
# between supersteps, with the request queue as the only ordering between
# the two: an agent with two daemons over one topology must match one
# daemon, and Connect, Disconnect, a crash and a Connect that fails
# part-way must leave every segment, the topology's included, attached by
# whom it should be and destroyed when it should be.
# Chunk partials hold the merge identity between launches, each launch
# resetting only the rows the last one wrote: one kernel run through
# shrinking, growing, failing and panicking launches must match a fresh
# kernel and the dense fold after every good one. internal/le's Put and
# Get, the one little-endian array codec every block, snapshot and digest
# goes through, copy an array's memory image (unsafe, which -race checks
# with checkptr) and must write the bytes of the per-value loop for vertex
# ids, int64s and float64s.
# Every block kind takes its offsets from one layout: the Apply and Merge
# bytes the agent writes, the daemon's results and what the agent reads
# back are held to the cursor codec they replaced, cost word aside.
# Where an algorithm declares Hints.Merge (sum or min), the kernels, the
# fold, the merge kernel and the message buffer fold in typed loops and
# never call MSGMerge: every built-in's MSGMerge is held to its
# declaration, the fold and merge kernel to the MSGMerge loops they
# replaced, and LP's early-exit merge to the full-scan one. Each node holds
# one GenResult and one inbox, natively on either iteration shape and in
# its agent: consecutive gen phases must fill those same buffers.
race-gen:
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestLayoutMatchesOracle|TestValidateRejectsCorruptLayout' ./internal/graph
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestNativeGenMatchesOracle|TestNativeGenAllocatesNothing|TestNativeGenReusesOneBufferPerNode' ./internal/engine
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestGenChunkMatchesOracle|TestGenKernelReusesPartials' -count=10 ./internal/gxplug
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestGenBlockBytesMatchOracle|TestApplyMergeBytesMatchOracle|TestGenKernelNamesLowestBadRow|TestMergeKernelMatchesOracle|TestRequestGenReusesOneResult' ./internal/gxplug
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestDisconnectDestroysSegments|TestConnectFailureLeavesNamespaceEmpty|TestAgentMultiDaemonMatchesSingle' ./internal/gxplug
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestCodecMatchesLoop' ./internal/le
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestSourceOnlyDeclarationsHold|TestMergeDeclarationsHold' ./gx
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestLPMergeMatchesOracle' ./internal/algos

# The one host fan-out and the panic boundary it carries: par.Do's own
# contract (every index once, the serial loop's error, nested Dos, the
# back-to-back hand-off, no steady allocation), the device launch that
# runs every kernel through it, the suite cells whose MSGGen, MSGApply and
# MSGMerge panic natively and on a plugged daemon, the entry-done callback
# that panics on a pool worker and must fail the suite, the failed runs that
# must leave no daemon behind, and the cache build that panics under
# blocked waiters and must leave no entry behind — helpers really
# concurrent.
race-par:
	GOMAXPROCS=8 $(GO) test -race ./internal/par ./internal/device
	GOMAXPROCS=8 $(GO) test -race -run 'TestTablePanickingBuildLeavesNoEntry' -count=10 ./internal/memo
	GOMAXPROCS=8 $(GO) test -race -run 'TestSuitePanickingAlgorithmFailsOneEntry|TestSuitePanickingEntryDoneFailsTheSuite|TestFailedPluggedRunReleasesDaemons|TestPanickingLoaderDoesNotPoisonCache' ./gx
	GOMAXPROCS=8 $(GO) test -race -run 'TestFailedRunReleasesIPC' ./internal/engine
	GOMAXPROCS=8 $(GO) test -race -short -run 'TestGenChunkMatchesOracle' -count=10 ./internal/gxplug

# Per-package coverage summary, gated on the floors recorded in
# COVERAGE_baseline.txt for the public API and the engine core. The test
# run's own status is checked before the floors: a failing suite fails
# this target, coverage lines or not.
cover:
	@out=$$(mktemp); \
	$(GO) test -short -cover ./... > $$out; status=$$?; \
	cat $$out; \
	if [ $$status -ne 0 ]; then rm -f $$out; echo "cover: tests failed"; exit $$status; fi; \
	rc=0; \
	while read pkg floor; do \
		got=$$(grep -E "^ok[[:space:]]+$$pkg([[:space:]]|$$)" $$out | grep -oE 'coverage: [0-9.]+' | grep -oE '[0-9.]+'); \
		if [ -z "$$got" ]; then echo "cover: no coverage reported for $$pkg"; rc=1; break; fi; \
		ok=$$(awk -v g="$$got" -v f="$$floor" 'BEGIN { print (g >= f) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then echo "cover: $$pkg coverage $$got% regressed below baseline $$floor%"; rc=1; break; fi; \
		echo "cover: $$pkg $$got% >= baseline $$floor%"; \
	done < COVERAGE_baseline.txt; \
	rm -f $$out; exit $$rc

# 10-second native-fuzzing smoke over the shared-memory codec, the one
# message buffer against its plain-map reference, the vertex store
# against the map + list cache it replaced, ApplyBatch's CSR merge
# against the edge-list rebuild it replaced, the dataset-ingestion
# decoders, both text readers against the parsers they replaced, and
# gxd's submission path (full corpora live in each package's
# testdata/fuzz). Go spends up to 60 s minimizing each new interesting
# input by default, which would leave a 10 s smoke stalled on its first
# find; -fuzzminimizetime=1s caps that so the time goes to fuzzing. A
# crasher still fails the target: only how long it is shrunk changes.
fuzz-smoke:
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzApplyBatch$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gxplug -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gxplug -run '^$$' -fuzz '^FuzzCodecDecodeNoPanic$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gxplug -run '^$$' -fuzz '^FuzzMsgBuf$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gxplug/synccache -run '^$$' -fuzz '^FuzzVertexStore$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gen/ingest -run '^$$' -fuzz '^FuzzSnapshotDecodeNoPanic$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gen/ingest -run '^$$' -fuzz '^FuzzSnapshotV2DecodeNoPanic$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gen/ingest -run '^$$' -fuzz '^FuzzEdgeListParse$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gen/ingest -run '^$$' -fuzz '^FuzzEdgeListMatchesOracle$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gen/ingest -run '^$$' -fuzz '^FuzzBatchListMatchesOracle$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/gen/ingest -run '^$$' -fuzz '^FuzzBatchDecodeNoPanic$$' -fuzztime=10s -fuzzminimizetime=1s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzSubmitNoPanic$$' -fuzztime=10s -fuzzminimizetime=1s

# The nested benchmark/ module imports gx and internal/* through its
# replace directive, but the root `go build ./... && go test ./...` never
# compiles it — exactly what a deletion can break silently. Vet and test
# it from its own directory (~2 s).
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Paired runs of one benchmark workload on BASE (its committed files
# unpacked with git archive into a temporary directory) and on this tree,
# alternating which goes first:
# the benchmark's -agree per pair, then each side's median and quartiles.
#   make bench-pair BASE=HEAD~1 WORKLOAD=plugged-warm [PAIRS=10] [SEED=42]
PAIRS ?= 10
SEED ?= 42
bench-pair:
	$(GO) run ./cmd/benchpair -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# Non-test Go line counts per package, and the total of shipped code —
# what CHANGES.md LOC-before/after entries are measured with. benchmark/
# and the analyzers' fixtures (internal/lint/testdata) are not counted;
# internal/lint, reached only from its own tests, is reported on its own
# "tooling" line, outside the total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/lint/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); \
			if (d ~ /^\.\/internal\/lint(\/|$$)/) { tool += $$1; next } n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d tooling (internal/lint)\n", tool; printf "%7d total\n", t }' | sort -k2

ci: fmt lint build examples race race-boundedcache race-suite race-resume race-serve race-dynamic race-gen race-par cover fuzz-smoke bench-smoke
