GO ?= go
GOFMT ?= gofmt

.PHONY: verify check build test race vet fmt-check bench-trace bench-json bench-check bench-alloc-gate fuzz-short routes-golden metriclint cover scenario-smoke bench-module bench-e2e size-json size-check experiments-check examples-smoke reach-check

# Tier-1: everything compiles and the test suite passes.
verify:
	$(GO) build ./...
	$(GO) test ./...

# Full gate: formatting, vet, the route-table golden check, the
# metric-naming lint, the whole suite under the race detector, a short
# run of the trace-overhead benchmark (compare the disabled sub-benchmark
# against no-tracer: they must match in ns/op and allocs/op), the
# allocation-regression gate on the untraced decide path, and a short
# fuzz pass over the fuzz targets, the scenario-matrix smoke run, vet +
# tests of the nested benchmark module, the package-size gate, the
# reachability gate, the per-package coverage floors, a re-run of every
# committed results/ file, and a run of the end-to-end examples.
check: fmt-check vet routes-golden metriclint race scenario-smoke bench-trace bench-alloc-gate fuzz-short bench-module size-check reach-check cover experiments-check examples-smoke

# A path stays only if a binary or the public API reaches it: every non-test
# function under internal/ must be linked by a cmd/*, examples/* or bench
# binary (built with inlining off, read back with go tool nm), be an exported
# method of an internal type the root package aliases, or be listed in
# scripts/reach.allow with its reason (facade, oracle or waits:<item>; at
# most 50 entries, none stale). No binary may link encoding/gob. About 10 s
# with a warm build cache.
reach-check:
	sh scripts/reachcheck.sh

# The examples that drive the public API end to end, the service one over
# real HTTP: each must run to completion and exit 0 (under a second each on
# a 2-vCPU VM). A package compiling is not the same as its example working.
examples-smoke:
	$(GO) run ./examples/service >/dev/null
	$(GO) run ./examples/quickstart >/dev/null
	$(GO) run ./examples/failover >/dev/null

# The paper's evaluation reproduces: every registry entry re-runs and must
# match its committed results/ file in every simulated cell (wall-clock
# *exec_ms columns are exempt), and results/ may hold nothing else but
# README.md. About 2 minutes on a 2-vCPU VM, most of it Table 2. Regenerate
# deliberately (and review the diff) with:
#   $(GO) run ./cmd/experiments -run all
experiments-check:
	$(GO) run ./cmd/experiments -run all -check

# Package and document sizes: the non-test Go lines (go list's GoFiles,
# counted by wc -l) of every package in the root module, and the lines of
# DESIGN.md and README.md, one "name lines" pair each, sorted. SIZE.json
# commits them; size-check fails when an entry differs or is missing, so
# every size change is a reviewed diff line of SIZE.json, the way a
# benchmark regression is one of BENCH_megh.json — and a shrink cannot
# leave a stale entry behind for a later change to grow back into. After a
# change that shrinks or (deliberately) grows a package or one of the two
# documents, rewrite the file with make size-json and commit it with the
# change.
SIZE_COUNTS = { $(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... \
	| while read -r pkg files; do \
		if [ -n "$$files" ]; then echo "$$pkg $$(cat $$files | wc -l)"; else echo "$$pkg 0"; fi; \
	done; \
	for doc in DESIGN.md README.md; do echo "$$doc $$(wc -l < $$doc)"; done; } | LC_ALL=C sort

size-json:
	@$(SIZE_COUNTS) | awk 'BEGIN { print "{" } \
		{ if (NR > 1) printf ",\n"; printf "  \"%s\": %d", $$1, $$2 } \
		END { print "\n}" }' > SIZE.json

size-check:
	@$(SIZE_COUNTS) | awk 'NR == FNR { if (split($$0, f, "\"") == 3) { v = f[3]; gsub(/[^0-9]/, "", v); want[f[2]] = v + 0 } next } \
		!($$1 in want) { print "size-check: " $$1 " has no entry in SIZE.json (run make size-json)"; bad = 1; next } \
		$$2 != want[$$1] { print "size-check: " $$1 " has " $$2 " non-test lines, SIZE.json says " want[$$1] " (run make size-json)"; bad = 1 } \
		END { exit bad }' SIZE.json -

# bench/ is a Go module of its own (megh/bench), so ./... above never
# reaches it: vet and test it by name, then run the program itself at a
# tenth of its work budget (every run checks its responses and exits
# non-zero on a failed one). TestSmoke drives 8×12 worlds, which travel in
# full; the program run drives the 100×150 and 10 000×1 000 worlds, which
# travel elided — between them both snapshot forms go end to end.
bench-module:
	$(GO) -C bench vet .
	$(GO) -C bench test .
	$(GO) run -C bench megh/bench -seconds 1 >/dev/null

# The repository benchmark, exactly as BENCHMARK.json's "command" runs it:
# five workloads, end-to-end metrics, a decision digest per workload. See
# bench/README.md for the flags (-workload, -seed, -trace 1, -compare).
bench-e2e:
	$(GO) run -C bench megh/bench

# Scenario-matrix smoke: every registered scenario, under the race detector
# and the invariant checker, end to end through the real CLI. Catches wiring
# rot (registry ↔ flags ↔ experiments) that package tests cannot see.
scenario-smoke:
	$(GO) run -race ./cmd/meghsim -scenario all -steps 200 -hosts 16 -vms 28 -check

# Metric-naming conventions (megh_ prefix, _total on counters, unit
# suffixes on histograms, no cross-registry type conflicts), enforced
# against the registries the real components build. See cmd/metriclint.
metriclint:
	$(GO) run ./cmd/metriclint

# The service's surface is pinned: the live mux patterns must match the
# committed internal/server/routes.golden, the exported fields of
# server.Config and server.ClusterConfig (name and type, in order)
# internal/server/options.golden, the binary bodies SessionClient sends
# (an elided decide, a two-item batch and a feedback post, in hex) and the
# binary answers it reads (a decide's and a two-item batch's)
# internal/server/testdata/elided.golden, and the flags meghd -h lists
# cmd/meghd/testdata/flags.golden. Regenerate deliberately (and review the
# diff) with the lines below. The first also rewrites every file that spells
# a snapshot digest, so a change to the digest or the wire layout regenerates
# them all at once: elided.golden (TestSessionClientWireBytes) and the
# FuzzDecideRequestJSON and FuzzDecideRequestBinary seeds under
# internal/server/testdata/fuzz (TestDecodeFastPath, TestBinaryBodyRefusals).
#   $(GO) test ./internal/server/ -run 'TestRoutesGolden|TestOptionsGolden|TestSessionClientWireBytes|TestDecodeFastPath|TestBinaryBodyRefusals' -update
#   $(GO) test ./cmd/meghd/ -run TestFlagsGolden -update
routes-golden:
	$(GO) test -run='TestRoutesGolden|TestOptionsGolden|TestSessionClientWireBytes|TestEncoderFloats' ./internal/server/
	$(GO) test -run=TestFlagsGolden ./cmd/meghd/

# gofmt -l lists files needing reformatting; any output fails the gate.
fmt-check:
	@unformatted="$$($(GOFMT) -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Short-mode trace-overhead benchmark (also asserts the decide path
# builds and runs; full numbers need a longer -benchtime), plus the
# health-layer overhead pair: "on-default-cadence" must stay within a few
# percent of "off" (DESIGN.md's health overhead budget).
bench-trace:
	$(GO) test -run=- -bench=BenchmarkDecide -benchtime=100x ./internal/core/
	$(GO) test -run=- -bench=BenchmarkDecideHealth -benchtime=100x ./internal/health/

# Allocation-regression gates: the untraced decide path with no pending cost
# must stay at exactly 0 allocs/op, the server's service-layer decide path
# (one session-lock hold per request) must allocate only its one result
# slice, the decide handler on the 10 000 × 1 000 grid must
# allocate under a tenth of the 471 652 B/op it took before the session
# retained its snapshot and request storage, in at most 40 allocations (a
# decide is a one-item batch, and its item must not escape to the heap), the
# elided-snapshot codec must allocate per request, not per VM or batch item
# (decode ≤ 4, encode
# ≤ 2 at 1 000 VMs, a 16-item batch ≤ 4), a replica PUT must allocate the
# same 256 KiB at most for a 4.7 MB image as for a 2 KB one (it lands in its
# temp file and is verified there), the client's static digest of the
# 10 000 × 1 000 grid must allocate only its hex string (≤ 1), and a
# checkpoint image must cost no copy of itself: writing one allocates its
# write buffer and nothing else (≤ 64 KiB, whatever the image's size; the
# image-sized buffer it replaced took 1.05 × the image-bytes, gob 4.7 ×),
# verifying one where it lies under 1 KB. Short iteration counts so
# `make check` stays fast; benchjson fails the build on any regression.
bench-alloc-gate:
	$(GO) test -run=- -bench='BenchmarkDecide/no-tracer-nocost' -benchtime=300x -benchmem ./internal/core/ \
		| $(GO) run ./cmd/benchjson -assert-zero-alloc BenchmarkDecide/no-tracer-nocost
	$(GO) test -run=- -bench='BenchmarkDecideRound/serial' -benchtime=300x -benchmem ./internal/server/ \
		| $(GO) run ./cmd/benchjson -assert-max-allocs BenchmarkDecideRound/serial=1
	$(GO) test -run=- -bench='BenchmarkDecideHandler/elided-grid10k' -benchtime=300x -benchmem ./internal/server/ \
		| $(GO) run ./cmd/benchjson -assert-max-bytes BenchmarkDecideHandler/elided-grid10k=47000 \
			-assert-max-allocs BenchmarkDecideHandler/elided-grid10k=40
	$(GO) test -run='TestSnapshotCodecAllocs|TestReplicaPutAllocsFlat' -count=1 ./internal/server/
	$(GO) test -run=- -bench='BenchmarkSnapshotCodec/digest-grid10k' -benchtime=300x -benchmem ./internal/server/ \
		| $(GO) run ./cmd/benchjson -assert-max-allocs BenchmarkSnapshotCodec/digest-grid10k=1
	$(GO) test -run=- -bench='BenchmarkCheckpoint/(save|verify)$$' -benchtime=300x -benchmem ./internal/core/ \
		| $(GO) run ./cmd/benchjson -assert-max-bytes 'BenchmarkCheckpoint/save=65536,BenchmarkCheckpoint/verify=1024'

# The tracked benchmarks: the one pipeline bench-json records and
# bench-check compares against. Decide benchmarks run a fixed iteration
# count: B's NNZ grows as updates accumulate, so ns/op is only comparable
# across revisions at an identical iteration count. BenchmarkSoak is the
# long-horizon instrument: one fixed 48 384-step run of the paper's
# 800 × 1 052 world, reporting ns/decide in week 2 and in week 20 (they
# must stay together) and the final NNZ of B and z. BenchmarkSimStep/paper800
# is the simulator's own share of sim-local's step: the same world under a
# policy that never migrates, a fixed 8 064 steps, reporting ns/step.
# BenchmarkCheckpoint (save / verify / load of one learner image) warms its
# learner by a fixed update count for the same reason. BenchmarkSnapshotCodec
# is the budget table's decode and encode rows (DESIGN.md §7.5): the binary
# elided decide body at 10 000 × 1 000, a binary 16-item batch, and the
# full-form decode that stays with encoding/json. BenchmarkDecideHandler is the
# service's whole share of that decide, handler in to handler out (ns/op and
# B/op). BenchmarkNewLearner
# builds an empty learner on each side of the eager page budget (ns/op and
# B/op are what a session create costs). BenchmarkBuild is experiments'
# Setup.Build — trace synthesis, mostly — at the three world shapes the
# repository benchmark sets up, a fixed 20 iterations each. Every benchmark runs
# -count=$(BENCH_REPS) times and benchjson keeps the fastest rep per name,
# filtering scheduler noise out of both sides.
BENCH_REPS ?= 3
TRACKED_BENCHMARKS = { \
	$(GO) test -run=- -bench='BenchmarkDecide' -benchtime=10000x -count=$(BENCH_REPS) -benchmem ./internal/core/ ; \
	$(GO) test -run=- -bench='BenchmarkCheckpoint' -benchtime=1000x -count=$(BENCH_REPS) -benchmem ./internal/core/ ; \
	$(GO) test -run=- -bench='BenchmarkNewLearner' -benchtime=100x -count=$(BENCH_REPS) -benchmem ./internal/core/ ; \
	$(GO) test -run=- -bench='BenchmarkShermanMorrisonMeghShape' -count=$(BENCH_REPS) -benchmem ./internal/sparse/ ; \
	$(GO) test -run=- -bench='BenchmarkDecideRound' -benchtime=10000x -count=$(BENCH_REPS) -benchmem ./internal/server/ ; \
	$(GO) test -run=- -bench='BenchmarkSnapshotCodec' -count=$(BENCH_REPS) -benchmem ./internal/server/ ; \
	$(GO) test -run=- -bench='BenchmarkDecideHandler' -benchtime=2000x -count=$(BENCH_REPS) -benchmem ./internal/server/ ; \
	$(GO) test -run=- -bench='BenchmarkFigure6_Megh|BenchmarkTable2_Megh' -count=$(BENCH_REPS) -benchmem . ; \
	$(GO) test -run=- -bench='BenchmarkSoak|BenchmarkSimStep' -benchtime=1x -count=$(BENCH_REPS) -benchmem . ; \
	$(GO) test -run=- -bench='BenchmarkBuild' -benchtime=20x -count=$(BENCH_REPS) -benchmem ./internal/experiments/ ; }

# Regenerate the tracked benchmark baseline. The stamp is the tree that was
# measured: the commit, with "-dirty" when it carried uncommitted changes
# (a baseline regenerated inside the change it belongs to).
bench-json:
	@$(TRACKED_BENCHMARKS) \
		| $(GO) run ./cmd/benchjson -commit "$$(git describe --always --dirty --abbrev=7)" \
			-note "Decide benchmarks use -benchtime=10000x, BenchmarkCheckpoint -benchtime=1000x, BenchmarkNewLearner -benchtime=100x, BenchmarkSoak and BenchmarkSimStep -benchtime=1x, BenchmarkBuild -benchtime=20x (fixed iterations; see DESIGN.md Performance); fastest of $(BENCH_REPS) reps per benchmark. BenchmarkDecideHandler -benchtime=2000x; BenchmarkSnapshotCodec decodes into a reused request scratch, as a session does; BenchmarkCheckpoint/save streams the image with WriteImage through its bounded buffer and /verify reads it in place with VerifyImage, as a checkpoint and a replica PUT do" \
			-o BENCH_megh.json

# Performance regression gate: rerun the tracked benchmarks and fail when
# any shared benchmark's ns/op regressed more than 20% against the committed
# BENCH_megh.json. Benchmarks new in this revision are skipped, so adding
# one does not need a baseline regen in the same change. Noisy machines can
# widen the budget:
#   make bench-check BENCH_TOLERANCE=0.35
BENCH_TOLERANCE ?= 0.20
bench-check:
	@$(TRACKED_BENCHMARKS) \
		| $(GO) run ./cmd/benchjson -check BENCH_megh.json -check-tolerance $(BENCH_TOLERANCE)

# Short fuzz pass: each target gets FUZZTIME of coverage-guided input
# generation on top of its committed seed corpus (testdata/fuzz/). Any
# crasher is written back into testdata/fuzz/ and fails the run. Go runs
# one fuzz target per invocation, hence one line per target.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run=- -fuzz=FuzzCheckpointLoad -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=- -fuzz=FuzzDecideRequestJSON -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=- -fuzz=FuzzRetainedSnapshot -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=- -fuzz=FuzzDecideRequestBinary -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=- -fuzz=FuzzDecideResponseBinary -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=- -fuzz=FuzzShermanMorrisonBasis -fuzztime=$(FUZZTIME) ./internal/sparse/
	$(GO) test -run=- -fuzz=FuzzScenarioConfig -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -run=- -fuzz=FuzzRingOwners -fuzztime=$(FUZZTIME) ./internal/cluster/

# Per-package coverage floors. Raise a floor when a package's coverage
# improves for good; never lower one to make a regression pass.
COVER_FLOORS = \
	internal/core:90 \
	internal/sim:92 \
	internal/sparse:94 \
	internal/workload:92 \
	internal/server:90 \
	internal/trace:92 \
	internal/power:92 \
	internal/invariant:85 \
	internal/experiments:85 \
	internal/scenario:90 \
	internal/cluster:95

# cover fails if any package above slips below its floor.
cover:
	@fail=0; \
	for entry in $(COVER_FLOORS); do \
		pkg=$${entry%%:*}; floor=$${entry##*:}; \
		pct=$$($(GO) test -cover "./$$pkg/" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p>=f)?1:0}'); \
		if [ "$$ok" != 1 ]; then echo "FAIL $$pkg: coverage $$pct% below floor $$floor%"; fail=1; \
		else echo "ok   $$pkg: coverage $$pct% (floor $$floor%)"; fi; \
	done; exit $$fail

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
