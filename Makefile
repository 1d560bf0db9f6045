GO ?= go

.PHONY: build fmt test race vet perfbench vuln staticcheck check chaos diag experiments-smoke dist-smoke dist-chaos fuzz-smoke bench bench-json clean

build:
	$(GO) build ./...

# fmt fails when any file deviates from gofmt, listing the offenders.
fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench vets and tests the benchmark module. It is a nested module, so
# the root ./... patterns never enter it, yet it imports internal/apriori,
# internal/hashtree and internal/itemset: a deletion there would break the
# benchmark while build, vet and test stayed green.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# vuln scans dependencies and stdlib usage when govulncheck is on PATH.
# The tool is not vendored, so offline checkouts skip with a note; CI
# installs it and runs the scan for real.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping (CI runs it)"; fi

# staticcheck lints beyond vet when the tool is on PATH. Like vuln, it is
# not vendored, so offline checkouts skip with a note; CI installs a pinned
# version and runs it for real.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it)"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# check is the CI gate: everything must build, be gofmt-clean, vet clean
# (the benchmark module too), lint clean, scan clean, and pass the full
# suite under the race detector in shuffled order (the engines are genuinely
# concurrent and order-independent).
check: build fmt vet perfbench staticcheck race vuln

# chaos runs the fault-injection invariant suite under the race detector:
# every Chaos* test plus the FuzzChaosInvariant seed corpora, which assert
# that seeded faults never change results and that recovery is deterministic.
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/sim/ ./internal/dfs/
	$(GO) test -race -run 'Chaos' ./internal/rdd/ ./internal/mapreduce/ \
		./internal/experiments/

# diag runs the diagnosis layer end to end on a small fixed-seed dataset
# with an injected 4x straggler node: both engines mine, the analyzer builds
# the critical path and attributes the stragglers, and the run fails on any
# malformed output (critical path not summing to the makespan, analyzed
# makespan disagreeing with the engine clock, or engines disagreeing).
diag:
	$(GO) run ./cmd/experiments -exp diag -dataset T10I4D100K -scale 0.05 -diagchaos

# experiments-smoke prints every table `-exp all` prints, at a scale that
# finishes in well under a minute, so a table that stops finishing, or
# outgrows a runner's memory, fails the push that did it. Each table also
# checks that its engines found identical itemsets.
experiments-smoke:
	$(GO) run ./cmd/experiments -exp all -scale 0.05

# dist-smoke proves the distributed runtime's crash story end to end, twice,
# both under the race detector with hard timeouts: first the Go-level suite —
# the kill test (two real worker processes, one SIGKILLed mid-pass,
# byte-identical itemsets vs the in-memory sim oracle), the graceful SIGTERM
# drain, the block-cache invariants (a second job over the same input reads
# the disk zero times; a restarted worker's cold cache re-reads with
# identical results) and the long-poll lease (the last map's completion
# wakes a held request at once; Close releases held requests; a canceled
# one leaves no goroutine and takes no task) — then the CLI smoke mode,
# which forks its own workers, performs the same kill-and-verify through
# cmd/yafim, and counter-asserts from /metrics that the input was read from
# disk at most once per worker per split. Worker logs, the master's live
# protocol journal and the cache-metrics.prom counter dump land under
# artifacts/dist-smoke for CI to upload on failure.
DIST_SMOKE_DIR ?= artifacts/dist-smoke
dist-smoke:
	@mkdir -p $(DIST_SMOKE_DIR)
	@$(GO) test -race -count=1 -v -timeout 300s \
		-run 'TestKillWorkerMidMiningParity|TestWorkerDrainsOnSIGTERM|TestSecondJobServedFromCache|TestCacheRebuildAfterWorkerRestartParity|TestReducesGrantedOnLastMapCompletion|TestMasterCloseReleasesHeldLeases|TestCanceledHeldLeaseLeavesNothing' \
		./internal/dist/ > $(DIST_SMOKE_DIR)/kill-test.log 2>&1; \
		s=$$?; cat $(DIST_SMOKE_DIR)/kill-test.log; [ $$s -eq 0 ]
	$(GO) build -race -o $(DIST_SMOKE_DIR)/yafim ./cmd/yafim
	$(DIST_SMOKE_DIR)/yafim -dist smoke -dist-workers 2 \
		-dist-logs $(DIST_SMOKE_DIR) -timeout 120s

# dist-chaos proves the runtime has no single point of failure left: first
# the Go-level suite under the race detector — SIGKILL the MASTER mid-pass
# and resume it from the write-ahead journal (TestMasterKillResumeParity),
# mine to byte-identical results through a seeded fault-injecting transport
# (TestChaosMiningParityWordCount), the ChaosTransport determinism and fault
# unit tests, the fetch-budget bound and the journaled verdict on a run
# frame that does not parse or is cut short — then the CLI smoke mode with a
# chaos seed on every worker link, which additionally SIGKILLs a worker
# mid-run. Logs plus the master's WAL land under artifacts/dist-chaos for CI
# to upload on failure.
DIST_CHAOS_DIR ?= artifacts/dist-chaos
DIST_CHAOS_SEED ?= 42
dist-chaos:
	@mkdir -p $(DIST_CHAOS_DIR)
	@$(GO) test -race -count=1 -v -timeout 300s \
		-run 'TestMasterKillResumeParity|TestChaosMiningParityWordCount|TestChaosTransport|TestReduceFetchBudget|TestReduceDrainBeatsBudget|TestReduceCorruptPartitionJournaled' \
		./internal/dist/ > $(DIST_CHAOS_DIR)/chaos-test.log 2>&1; \
		s=$$?; cat $(DIST_CHAOS_DIR)/chaos-test.log; [ $$s -eq 0 ]
	$(GO) build -race -o $(DIST_CHAOS_DIR)/yafim ./cmd/yafim
	$(DIST_CHAOS_DIR)/yafim -dist smoke -dist-workers 2 \
		-dist-chaos $(DIST_CHAOS_SEED) -dist-logs $(DIST_CHAOS_DIR) -timeout 120s

# fuzz-smoke gives each fuzz target a short budget of fresh inputs on top of
# its seed corpus — enough to catch regressions in the determinism and
# exactness invariants without turning CI into a fuzzing farm. The split
# reader's seeds hold lines of several KiB, so its minimization of each new
# interesting input is capped in runs; at the default 60 s cap a 10 s budget
# would be spent minimizing instead of fuzzing.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzChaosInvariant' -fuzztime $(FUZZTIME) ./internal/rdd/
	$(GO) test -run '^$$' -fuzz 'FuzzShuffleLifecycle' -fuzztime $(FUZZTIME) ./internal/rdd/
	$(GO) test -run '^$$' -fuzz 'FuzzReduceByKeyParity' -fuzztime $(FUZZTIME) ./internal/rdd/
	$(GO) test -run '^$$' -fuzz 'FuzzChaosInvariant' -fuzztime $(FUZZTIME) ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz 'FuzzMapTaskParity' -fuzztime $(FUZZTIME) ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz 'FuzzParseRun' -fuzztime $(FUZZTIME) ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz 'FuzzParseLines' -fuzztime $(FUZZTIME) ./internal/itemset/
	$(GO) test -run '^$$' -fuzz 'FuzzChaosMiningInvariant' -fuzztime $(FUZZTIME) ./internal/experiments/
	$(GO) test -run '^$$' -fuzz 'FuzzRDDEclatParity' -fuzztime $(FUZZTIME) ./internal/rddeclat/
	$(GO) test -run '^$$' -fuzz 'FuzzSubsetParity' -fuzztime $(FUZZTIME) ./internal/hashtree/
	$(GO) test -run '^$$' -fuzz 'FuzzReadSplitMatchesDFS' -fuzztime $(FUZZTIME) \
		-fuzzminimizetime 50x ./internal/dist/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-json runs the perf-gated benchmarks — the pass-2 counting kernels
# (the hash tree on T10, whose leaves confirm signatures against stamps,
# and on Chess, whose signatures decide alone; the build; the bitsets), the
# .dat parser on one map task's split (SplitDecode), that split's read and
# parse (SplitRead), LoadFile of the T10 and Chess x5 files, a worker's map
# task over a split in its block cache (WorkerCachedMap, in ./internal/dist),
# the shuffle residency kernel, the MapReduce shuffle's wire frame, and the
# diagnosis layer — and renders them as a JSON trajectory point. CI
# regenerates this into a scratch file and gates it against the committed
# baseline (B/op and allocs/op within 20% plus one unit, every other metric
# but ns/op exactly equal):
#
#   make bench-json BENCH_JSON=bench-current.json
#   $(GO) run ./cmd/benchjson -check BENCH_9.json bench-current.json
#
# To refresh the committed baseline after an intentional perf change, run
# plain `make bench-json` and commit the updated BENCH_9.json.
#
# The millisecond rows (kernels, frame, split decode and read, LoadFile,
# the worker's cached map) run 100 iterations each: allocs/op is the
# process's allocation count over the timed loop divided by the
# iterations, so at 3 a few stray allocations
# elsewhere in the process (six once, taking the hash-tree kernel from 3 to
# 5 allocs/op) would move a small count by whole units. The pipeline rows
# make hundreds of thousands of allocations per op, where strays vanish,
# and run 3.
BENCH_JSON ?= BENCH_9.json
bench-json:
	{ $(GO) test -run '^$$' -bench 'Pass2Kernel|ShuffleFrame|SplitDecode|SplitRead|LoadFile|WorkerCachedMap' -benchmem -benchtime 100x -count 1 . ./internal/dist && \
	  $(GO) test -run '^$$' -bench 'Pass2(YAFIM|MRApriori|RDDEclat)$$|ShuffleResident|Diagnosis' -benchmem -benchtime 3x -count 1 . ; } \
		| $(GO) run ./cmd/benchjson > $(BENCH_JSON)

clean:
	$(GO) clean ./...
