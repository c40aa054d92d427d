# Build and verification entry points. `make verify` is the full CI gate:
# tier-1 (build + tests), static analysis and gofmt, race-enabled tests of the
# packages with real concurrency (the engine's goroutine hand-offs, the MDL
# library every session shares, the discovery hooks mpi fans out, the TCP
# transport and the daemon/fault machinery it carries, the experiments' cell
# cache, what-if replays sharing one loaded archive), a five-second smoke of
# each fuzz target, one iteration of every benchmark, the benchmark workloads'
# result digests, the CLI goldens, the paper's regenerated evaluation, and the
# out-of-tree benchmark module's own vet + tests (it imports internal packages
# through a replace directive, so an internal-API deletion that breaks it
# fails here rather than in the benchmark run).

GO ?= go

.PHONY: build test vet fmt-check race verify loc slow-tests alloc-profile trace-footprint bench bench-smoke bench-module bench-digests replay-golden perfdb-golden sync-golden wire-golden trend-golden chaos experiments-golden fuzz fuzz-perfdb fuzz-wire fuzz-probe fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file in the tree (bench/ included) is not
# gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l reports:"; echo "$$out"; exit 1; }

race:
	$(GO) test -race ./internal/sim ./internal/probe ./internal/mpi ./internal/mdl ./internal/gprofsim ./internal/consultant ./internal/wire ./internal/frontend ./internal/daemon ./internal/faults ./internal/trace ./internal/core ./internal/session ./internal/perfdb ./internal/datasource ./internal/resource ./internal/metric
	$(GO) test -race -run 'TestCellCache' ./internal/experiments
	$(GO) test -race -run 'TestConcurrentReplaysOfOneArchive' ./internal/pperfmark

verify: build vet fmt-check test race fuzz-smoke bench-smoke bench-module bench-digests replay-golden perfdb-golden sync-golden wire-golden trend-golden experiments-golden

# loc prints the size figures simplicity PRs quote: non-test and test Go lines
# outside bench/, then the non-test count of the root package, examples/ and
# each cmd and internal package, which add up to the first figure. Not part
# of verify.
loc:
	@printf '%6d  non-test Go outside bench/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)
	@printf '%6d  test Go outside bench/\n' $$(find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)
	@printf '%6d  . (root package)\n' $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@for d in examples/ cmd/*/ internal/*/; do \
		printf '%6d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $${d%/}; \
	done

# slow-tests runs tier-1 once with -v and prints where its time goes: each
# package's wall time from the `ok`/`FAIL` lines, slowest first, then the 15
# slowest top-level tests from the `--- PASS`/`--- FAIL` lines (subtests are
# indented and skipped). Packages run concurrently, so the figures include
# contention; it exits with the tests' status. Not part of verify.
slow-tests:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	{ $(GO) test -count=1 -v ./... > "$$tmp/out" 2>&1; rc=$$?; } ; \
	echo "package wall times:"; \
	sed -n 's/^\(ok\|FAIL\)[[:space:]]\{1,\}\([^[:space:]]\{1,\}\)[[:space:]]\{1,\}\([0-9.]\{1,\}s\).*/\3  \2/p' "$$tmp/out" | sort -rn; \
	echo "slowest top-level tests:"; \
	sed -n 's/^--- \(PASS\|FAIL\): \([^ ]*\) (\([0-9.]*s\))$$/\3  \2/p' "$$tmp/out" | sort -rn | head -15; \
	exit $$rc

# alloc-profile prints where the heap objects of one root benchmark come
# from: every allocation sampled, top 25 sites by object count. BENCH names
# the benchmark — by default the paper's Figure 3 run (small-messages under
# the full tool, the `p2p-flood` workload); BENCH=BenchmarkReplayWhatIf is the
# `replay-whatif` workload's analysis plane (replayed View, Consultant search,
# Render and Judge of every replay), BENCH=BenchmarkLoadAny its read layer
# alone (LoadAny of the three replay fixtures' programs: the frame-header hop
# that sizes the event list, then the chunk decode), BENCH=BenchmarkTracedTCP
# one traced session of `traced-tcp` (rings packed where they are drained, the bytes over
# TCP, verified and kept by the timeline, exported and walked where they lie:
# by alloc_space the one `[]Span` left is the benchmark's own
# `Timeline.Spans()` call, then the exporter's 24-byte sort keys),
# BENCH=BenchmarkStoreCycle the `store-cycle` verbs over three recordings
# (chunk cursor, View fold, diff/trend, verify on push and pull),
# BENCH=BenchmarkSuiteSweep one `suite-sweep` rep (23 program × personality
# runs, each recorded into one store and committed: daemon ticks, the stream
# recorder's chunk writes, the Consultant's enables). SAMPLE=alloc_space
# ranks the sites by bytes instead of objects. Not part of verify.
BENCH ?= BenchmarkFigure3SmallMessagesPC
SAMPLE ?= alloc_objects
alloc-profile:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench '^$(BENCH)$$' -benchtime=1x \
		-memprofile "$$tmp/mem.prof" -memprofilerate=1 -o "$$tmp/pperf.test" . >/dev/null && \
	$(GO) tool pprof -sample_index=$(SAMPLE) -top -nodecount=25 "$$tmp/pperf.test" "$$tmp/mem.prof"

# trace-footprint prints the peak RSS of the three CLI runs ROADMAP quotes
# for the trace plane — the traced small-messages run, the same with -record,
# and `db show` of that recording (1.49 M spans, 25.6 MB) — each a child
# process measured through RUSAGE_CHILDREN (there is no /usr/bin/time here).
# About 20 s; the runs peak at a few hundred MB, one at a time. Not part of
# verify.
PEAK_RSS = python3 -c 'import resource, subprocess, sys; rc = subprocess.call(sys.argv[2:], stdout=subprocess.DEVNULL); print("%-22s %5.0f MB peak RSS" % (sys.argv[1], resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)); sys.exit(rc)'
trace-footprint:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/pperf" ./cmd/pperf && \
	$(PEAK_RSS) 'traced run' "$$tmp/pperf" -prog small-messages -seed 7 -trace "$$tmp/T" && \
	$(PEAK_RSS) 'traced run, -record' "$$tmp/pperf" -prog small-messages -seed 7 -trace "$$tmp/T" -record "$$tmp/A" && \
	$(PEAK_RSS) 'db add' "$$tmp/pperf" db -store "$$tmp/S" add -label traced "$$tmp/A" && \
	$(PEAK_RSS) 'db show' "$$tmp/pperf" db -store "$$tmp/S" show traced

# bench-smoke runs every benchmark of the main module once, so one that no
# longer runs (a deleted name it reads, a check it fails) fails CI; vet only
# compiles them. -run '^$$' skips the unit tests `test` has already run. On a
# 2-core Xeon: 13.3 s in the root package, 2.0 s in internal/pperfmark, under
# 0.1 s in every other package.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-digests runs each benchmark workload once (seed 7, one rep, no
# attribution pass) and fails unless every workload's result digest and
# artifact bytes equal testdata/bench-digests.txt: the check that a change
# left everything the workloads record, export and judge byte-identical.
# bench/run.sh builds into .bench_build/ (git-ignored); the captured output
# goes to a temporary directory. About 50 s on a 2-core Xeon. Part of
# verify: a change that means to move these bytes updates the file and says
# why.
BENCH_WORKLOADS = p2p-flood suite-sweep traced-tcp replay-whatif store-cycle
bench-digests:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	for wl in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$wl --seed 7 --reps 1 --trace 0 >"$$tmp/out" 2>"$$tmp/err" || { cat "$$tmp/err"; exit 1; }; \
		digest=$$(sed -n "s/^$$wl: .*, digest \([0-9a-f]*\)$$/\1/p" "$$tmp/err"); \
		bytes=$$(sed -n 's/.*"artifact_bytes":{"value":\([0-9]*\),.*/\1/p' "$$tmp/out"); \
		echo "$$wl $$digest $$bytes"; \
	done > "$$tmp/got" && \
	grep -v '^#' testdata/bench-digests.txt | diff - "$$tmp/got" && \
	echo "bench-digests: all five workloads match testdata/bench-digests.txt"

# Opt into the chaos sweep as part of verify with `make verify CHAOS=1`.
ifeq ($(CHAOS),1)
verify: chaos
endif

# chaos runs ~50 seeded random fault plans end-to-end under the race
# detector. Invariants per plan: the run terminates, coverage stays within
# [0,1], nothing panics, and an identical-seed re-run is byte-identical.
# Each failing case logs its plan text, which reproduces it exactly.
chaos:
	CHAOS=1 $(GO) test -race -run TestChaosPlans ./internal/faults

# experiments-golden regenerates every table and figure of the paper's
# evaluation (deterministic; each program/personality run is simulated once
# and the experiments run GOMAXPROCS at a time: 10 s wall for the built
# binary on a 2-core Xeon, 16 s with GOMAXPROCS=1) and fails unless the
# output is byte-identical to the checked-in report. A PR that means to
# change the report regenerates the file with
# `go run ./cmd/experiments > results/experiments_report.txt`.
experiments-golden:
	$(GO) run ./cmd/experiments | cmp - results/experiments_report.txt
	@echo "experiments-golden: regenerated report matches results/experiments_report.txt"

# fuzz hammers the fault-plan parser: no input may panic it, and every
# accepted plan must round-trip through its canonical String form.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/faults

# wire-golden pins the shared reliability plane's observable behaviour: the
# exact backoff schedules every channel draws, and the cross-stack
# equivalence of ctl/bulk/sync resilience accounting under one fault plan.
wire-golden:
	$(GO) test -count=1 -run 'TestBackoffPinnedSchedules|TestCrossStackFaultPlanEquivalence' ./internal/wire
	@echo "wire-golden: backoff schedules pinned; ctl/bulk/sync accounting equivalent"

# fuzz-probe drives random probe edits, calls and nested calls through a
# process against an eager model: what each point runs, the stack questions
# and first-call order must match it.
fuzz-probe:
	$(GO) test -fuzz=FuzzProbeEdits -fuzztime=30s ./internal/probe

# fuzz-wire feeds arbitrary byte streams through the server-side frame read
# path: garbage, truncations and bit flips must error, never panic or hang.
fuzz-wire:
	$(GO) test -fuzz=FuzzWireFrame -fuzztime=30s ./internal/wire

# fuzz-smoke gives each fuzz target five seconds of mutation in the CI gate
# (plain `go test` only replays their seed corpora); the 30 s targets above
# and below are the longer soak. -run '^$$' skips the packages' unit tests,
# which `test` has already run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzWireFrame -fuzztime=5s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzFrameOpen -fuzztime=5s ./internal/frontend
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/faults
	$(GO) test -run '^$$' -fuzz=FuzzChunkDecoder -fuzztime=5s ./internal/perfdb
	$(GO) test -run '^$$' -fuzz=FuzzUnpackSamples -fuzztime=5s ./internal/session
	$(GO) test -run '^$$' -fuzz=FuzzUnpackShard -fuzztime=5s ./internal/session
	$(GO) test -run '^$$' -fuzz=FuzzUnpackEvents -fuzztime=5s ./internal/session
	$(GO) test -run '^$$' -fuzz=FuzzCompileSource -fuzztime=5s ./internal/mdl
	$(GO) test -run '^$$' -fuzz=FuzzApplySamples -fuzztime=5s ./internal/datasource
	$(GO) test -run '^$$' -fuzz=FuzzRunInfo -fuzztime=5s ./internal/pperfmark
	$(GO) test -run '^$$' -fuzz=FuzzProbeEdits -fuzztime=5s ./internal/probe
	$(GO) test -run '^$$' -fuzz=FuzzMatchOrder -fuzztime=5s ./internal/mpi
	$(GO) test -run '^$$' -fuzz=FuzzQueue -fuzztime=5s ./internal/mpi

# fuzz-perfdb holds the chunked-archive decoder and the packed sample-batch,
# trace-shard and event-section decoders under it (internal/session) total:
# arbitrary bytes must produce an archive, a batch, a shard, an event section
# or an error, never a panic.
fuzz-perfdb:
	$(GO) test -fuzz=FuzzChunkDecoder -fuzztime=30s ./internal/perfdb
	$(GO) test -fuzz=FuzzUnpackSamples -fuzztime=30s ./internal/session
	$(GO) test -fuzz=FuzzUnpackShard -fuzztime=30s ./internal/session
	$(GO) test -fuzz=FuzzUnpackEvents -fuzztime=30s ./internal/session

# bench runs the root package's figure/table/ablation benchmarks, the
# per-enable and per-session costs (BenchmarkInstantiate, BenchmarkNewSession;
# allocs reported) and the fault/trace zero-cost guards, then the engine's
# per-dispatch cost at 6, 96 and 384 sleeping processes (flat: the next
# process is the top of a heap — reported, not gated). Per-layer numbers
# (engine switch, eager message, probe fire, MDL compile, histogram add, …)
# come from the micro drivers of `bash bench/run.sh`.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) test -run '^$$' -bench=BenchmarkDispatch -benchmem ./internal/sim

# replay-golden records a seeded run with the CLI, replays the archive, and
# fails on any difference between the live and replayed reports (the
# "Trace written to" line names different files, so the report is compared
# with the trace paths normalized).
replay-golden:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/pperf -prog small-messages -seed 7 -hierarchy -critical-path \
		-trace "$$tmp/live.json" -record "$$tmp/run.ppdb" 2>/dev/null \
		| sed "s#$$tmp/live.json#TRACE#" > "$$tmp/live.txt" && \
	$(GO) run ./cmd/pperf -replay "$$tmp/run.ppdb" -hierarchy -critical-path \
		-trace "$$tmp/replay.json" 2>/dev/null \
		| sed "s#$$tmp/replay.json#TRACE#" > "$$tmp/replay.txt" && \
	diff "$$tmp/live.txt" "$$tmp/replay.txt" && \
	cmp "$$tmp/live.json" "$$tmp/replay.json" && \
	echo "replay-golden: live and replayed reports and trace exports are identical"

# perfdb-golden records a healthy and a bandwidth-degraded run of the same
# seeded program into a fresh store, then cross-run-diffs them twice as text
# and twice as JSON. The diff must flag significant REGRESSIONs (db diff
# exits 3 when it does, in either format) and each pair of reports must be
# byte-identical.
perfdb-golden:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/pperf" ./cmd/pperf && \
	"$$tmp/pperf" -prog big-message -seed 7 \
		-db "$$tmp/store" -db-label healthy >/dev/null 2>&1 && \
	"$$tmp/pperf" -prog big-message -seed 7 -faults 't=500ms degrade-link * bw=0.1' \
		-db "$$tmp/store" -db-label degraded >/dev/null 2>&1 && \
	{ "$$tmp/pperf" db -store "$$tmp/store" diff healthy degraded > "$$tmp/d1.txt"; [ $$? -eq 3 ]; } && \
	{ "$$tmp/pperf" db -store "$$tmp/store" diff healthy degraded > "$$tmp/d2.txt"; [ $$? -eq 3 ]; } && \
	cmp "$$tmp/d1.txt" "$$tmp/d2.txt" && \
	grep -q REGRESSION "$$tmp/d1.txt" && \
	{ "$$tmp/pperf" db -store "$$tmp/store" diff -format=json healthy degraded > "$$tmp/d1.json"; [ $$? -eq 3 ]; } && \
	{ "$$tmp/pperf" db -store "$$tmp/store" diff -format=json healthy degraded > "$$tmp/d2.json"; [ $$? -eq 3 ]; } && \
	cmp "$$tmp/d1.json" "$$tmp/d2.json" && \
	grep -q '"verdict": "REGRESSION"' "$$tmp/d1.json" && \
	echo "perfdb-golden: degraded run flagged with significant regressions; text and JSON diffs are byte-deterministic"

# trend-golden seeds a five-run store of one program — three identical healthy
# runs stored under seed labels 7-9 (nothing draws from the seed), then two
# with a degraded link — and checks the store-wide trend query:
# it must flag DRIFTING series (db trend exits 3), attribute the changepoint
# to the first degraded run (first-bad r0004), be byte-deterministic, and
# say the same in its JSON form. A second store holds a same-seed pair whose
# fault fires at t=3s: with a 3% effect floor the full-run diff dilutes the
# post-fault regression away (exit 0, no REGRESSION) while -since-fault
# anchors the window at the fault and recovers it (exit 3).
trend-golden:
	@tmp=$$(mktemp -d) && \
	trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/pperf" ./cmd/pperf && \
	for s in 7 8 9; do \
		"$$tmp/pperf" -prog big-message -seed $$s \
			-db "$$tmp/trend" -db-label healthy-$$s >/dev/null 2>&1 || exit 1; \
	done && \
	for s in 10 11; do \
		"$$tmp/pperf" -prog big-message -seed $$s -faults 't=0s degrade-link * bw=0.5' \
			-db "$$tmp/trend" -db-label degraded-$$s >/dev/null 2>&1 || exit 1; \
	done && \
	{ "$$tmp/pperf" db -store "$$tmp/trend" trend -alpha=0.1 big-message > "$$tmp/t1.txt"; [ $$? -eq 3 ]; } && \
	{ "$$tmp/pperf" db -store "$$tmp/trend" trend -alpha=0.1 big-message > "$$tmp/t2.txt"; [ $$? -eq 3 ]; } && \
	cmp "$$tmp/t1.txt" "$$tmp/t2.txt" && \
	grep -q 'DRIFTING-UP' "$$tmp/t1.txt" && \
	grep -q 'first-bad r0004' "$$tmp/t1.txt" && \
	{ "$$tmp/pperf" db -store "$$tmp/trend" trend -alpha=0.1 -format=json big-message > "$$tmp/t.json"; [ $$? -eq 3 ]; } && \
	grep -q '"verdict": "DRIFTING-UP"' "$$tmp/t.json" && \
	grep -q '"first_bad": "r0004"' "$$tmp/t.json" && \
	"$$tmp/pperf" -prog big-message -seed 7 -db "$$tmp/pair" -db-label healthy >/dev/null 2>&1 && \
	"$$tmp/pperf" -prog big-message -seed 7 -faults 't=3s degrade-link * bw=0.25' \
		-db "$$tmp/pair" -db-label late-fault >/dev/null 2>&1 && \
	"$$tmp/pperf" db -store "$$tmp/pair" diff -min-effect=0.03 r0001 r0002 > "$$tmp/plain.txt" && \
	! grep -q REGRESSION "$$tmp/plain.txt" && \
	{ "$$tmp/pperf" db -store "$$tmp/pair" diff -since-fault -min-effect=0.03 r0001 r0002 > "$$tmp/since.txt"; [ $$? -eq 3 ]; } && \
	grep -q 'window: \[3.000s, end)' "$$tmp/since.txt" && \
	grep -q REGRESSION "$$tmp/since.txt" && \
	{ "$$tmp/pperf" db -store "$$tmp/pair" diff -since-fault -min-effect=0.03 -format=json r0001 r0002 > "$$tmp/since.json"; [ $$? -eq 3 ]; } && \
	grep -q '"since_fault": true' "$$tmp/since.json" && \
	grep -q '"verdict": "REGRESSION"' "$$tmp/since.json" && \
	echo "trend-golden: 5-run drift flagged with first-bad r0004; -since-fault recovers the late-fault regression a full-run diff dilutes"

# sync-golden exercises the store-sync plane end to end with the real CLI:
# record a run into store a, serve empty store b, push the run under a
# seeded fault plan (dropped frames + degraded link), check a re-push
# dedupes, pull into store c, and require all three archives to be
# byte-identical — and `db list` of all three stores to print the same: the
# pushed and pulled index entries are read from the archive header on
# arrival, so they must say exactly what the recording store says.
sync-golden:
	@set -e; tmp=$$(mktemp -d); \
	$(GO) build -o "$$tmp/pperf" ./cmd/pperf; \
	"$$tmp/pperf" -prog small-messages -seed 7 -db "$$tmp/a" -db-label golden >/dev/null 2>&1; \
	"$$tmp/pperf" db -store "$$tmp/b" -addr-file "$$tmp/addr" serve 127.0.0.1:0 >/dev/null 2>&1 & \
	srv=$$!; \
	trap 'kill "$$srv" 2>/dev/null; wait "$$srv" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ]; \
	addr=$$(cat "$$tmp/addr"); \
	"$$tmp/pperf" db -store "$$tmp/a" \
		-sync-faults 'seed=7; t=0s drop-transport client n=2 chan=sync; t=0s degrade-link * lat=1 bw=0.9' \
		push golden "$$addr" >/dev/null; \
	"$$tmp/pperf" db -store "$$tmp/a" push golden "$$addr" | grep -q 'already has'; \
	"$$tmp/pperf" db -store "$$tmp/c" pull "$$addr" --all >/dev/null; \
	cmp "$$tmp/a/runs/r0001.ppdb" "$$tmp/b/runs/r0001.ppdb"; \
	cmp "$$tmp/a/runs/r0001.ppdb" "$$tmp/c/runs/r0001.ppdb"; \
	for s in a b c; do "$$tmp/pperf" db -store "$$tmp/$$s" list > "$$tmp/list.$$s"; done; \
	cmp "$$tmp/list.a" "$$tmp/list.b"; \
	cmp "$$tmp/list.a" "$$tmp/list.c"; \
	echo "sync-golden: pushed and pulled archives and index entries are identical under a seeded fault plan"
