GO ?= go

.PHONY: all build test race vet fmt lint check ci e2e fuzz presets faults invariants slo fleet serve clean bench bench-check bench-shards

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails (and lists offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint is fmt + vet plus grep-enforced idioms the toolchain doesn't check:
# the module is go 1.22, where loop variables are per-iteration, so `x := x`
# shadow copies are dead weight and must not come back. The sim kernel has
# one wait path: only internal/sim/proc.go (Proc.wait) may yield a process
# or list a waiter, so every park obeys the same kill rule. The event bus has
# one internal publication path: emitters call Recorder.Log with typed
# attributes, never the map-form Emit (or Observer.Emit with a built Event);
# bench/e2e, a separate module pinned to the old surface, is the one
# map-form caller left. A checkpoint payload (nvmkernel.Payload) is immutable
# and shared by the working copy, the version slots, the buddy replica and
# the PFS, so core, the remote tier and the PFS hold it without copying: a
# payload copy in their non-test code fails the lint. A whole-chunk version
# is a recipe whose bytes one generator defines, so the pattern constant
# 2654435761 may appear in exactly one non-test file. core keeps its commit
# records and version slots in the kernel's typed chunk table, keyed by chunk
# ID: a named-metadata call or a "cmeta/"/"cdata/" key in its non-test code
# fails the lint. The sim kernel and the resource layer dispatch and transfer
# without allocating, and sort.Slice/sort.SliceStable allocate a reflect
# swapper on every call: their non-test code sorts with slices.SortFunc.
# A run's totals have one home, the registry: the cluster reads them from
# the (merged) registry, never from a component's own counters, so a dead
# recovery epoch's stores need not be kept; a Counters.Get( in its non-test
# code fails the lint.
# The policy tables stay data: the cluster builds the remote tier from a
# resolved row, so a non-test file of internal/policy that imports the
# remote, erasure, core or nvmkernel package (a tier constructor moving back
# into a row) fails the lint.
# Daemons wake for work, not on a clock: a non-test Signal.WaitTimeout call
# outside internal/remote (whose helper still scans on a tick) fails the
# lint, so no worker goes back to polling.
# Every function declared in a non-test file of a library package must be
# linked into some binary (a command, an example or bench/e2e):
# TestEveryFunctionIsLinked (linked_test.go) builds them all and fails with
# file:line for each one that is not, unless its linkAllowlist map names it
# with a reason. A test-only helper belongs in a _test.go file. Every
# exported field of an exported Config, Options or Control struct under
# internal/ must be set by some non-test code outside its own defaulting:
# TestEveryOptionIsSet (options_test.go) type-checks the module and
# bench/e2e and fails with file:line for each field one value serves (make
# it a constant), unless its optionAllowlist map names it with a reason.
# -count=1, because the test result cache does not see the sources either
# test reads.
lint: fmt vet
	@out="$$(grep -rn --include='*.go' -E '^[[:space:]]*([a-zA-Z_][a-zA-Z0-9_]*) := \1$$' . || true)"; \
	if [ -n "$$out" ]; then \
		echo "redundant loop-variable copies (go 1.22 scopes per iteration):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude='proc.go' -E 'yield\(|waiter\{' internal/sim || true)"; \
	if [ -n "$$out" ]; then \
		echo "park outside Proc.wait (only internal/sim/proc.go may yield or build a waiter):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E '\.Emit\(obs\.Ev' . | grep -v -e '^\./internal/obs/' -e '^\./bench/e2e/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "map-form event publication (use Recorder.Log with typed obs attributes):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E 'append\(\[\]byte\(nil\)|bytes\.Clone|slices\.Clone' internal/core internal/remote internal/pfs || true)"; \
	if [ -n "$$out" ]; then \
		echo "payload copy in core, the remote or the PFS tier (payloads are immutable; keep the value):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rl --include='*.go' --exclude='*_test.go' 2654435761 . || true)"; \
	if [ "$$(echo "$$out" | grep -c .)" -ne 1 ]; then \
		echo "the payload pattern constant 2654435761 must appear in exactly one non-test file (the nvmkernel.Payload generator), found in:"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E 'GetMeta|SetMeta|QueryMeta|UpdateMeta|MetaKeys|"c(meta|data)/' internal/core || true)"; \
	if [ -n "$$out" ]; then \
		echo "string-keyed metadata in core (use the kernel's typed chunk table, Process.Chunks):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E 'sort\.Slice(Stable)?\(' internal/sim internal/resource || true)"; \
	if [ -n "$$out" ]; then \
		echo "sort.Slice in the sim kernel or resource layer (its reflect swapper allocates per call; use slices.SortFunc):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -F 'Counters.Get(' internal/cluster || true)"; \
	if [ -n "$$out" ]; then \
		echo "component counter read in the cluster (read run totals from the registry, Registry.Total):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E '"nvmcp/internal/(remote|erasure|core|nvmkernel)"' internal/policy || true)"; \
	if [ -n "$$out" ]; then \
		echo "policy imports a tier package (the name tables are data; the cluster builds the remote tier):"; \
		echo "$$out"; exit 1; \
	fi
	@out="$$(grep -rn --include='*.go' --exclude='*_test.go' -E '\.WaitTimeout\(' . | grep -v '^\./internal/remote/' || true)"; \
	if [ -n "$$out" ]; then \
		echo "timed wait outside the remote helper (park on Signal.Wait and broadcast on every change, or arm a sim.Timer):"; \
		echo "$$out"; exit 1; \
	fi
	$(GO) test -count=1 -run 'TestEveryFunctionIsLinked|TestEveryOptionIsSet' .

check: lint test

# e2e vets and tests the benchmark harness. bench/e2e is its own module, so
# the root ./... patterns never compile it, although it imports cluster,
# core, remote, scenario and obs.
e2e:
	$(GO) -C bench/e2e vet ./...
	$(GO) -C bench/e2e test ./...

# fuzz runs every fuzz target in the module for 10 s each, one target at a
# time (go test -fuzz takes one target per run). Targets are found by name,
# so a new Fuzz function joins the gate without an edit here. Minimizing a
# new input is capped at 100 runs: uncapped, minimizing one of
# FuzzQueueOrder's 10k-event inputs outlasts the fuzz time.
fuzz:
	@for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd); do \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "== $$name ($$(dirname "$$f")) =="; \
			$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime 10s -fuzzminimizetime 100x "./$$(dirname "$$f")" || exit 1; \
		done; \
	done

# presets smoke-runs every cluster-shaped preset at tiny scale under the
# race detector — the fast end-to-end gate that the scenario layer, policy
# name tables and cluster composition still agree.
presets:
	$(GO) run -race ./cmd/nvmcp-sim -list-presets
	@for p in $$($(GO) run ./cmd/nvmcp-sim -list-presets | awk '$$3 == "-preset" {print $$1}'); do \
		echo "== preset $$p (tiny) =="; \
		$(GO) run -race ./cmd/nvmcp-sim -preset $$p -scale tiny || exit 1; \
	done

# faults runs the fault-heavy configurations under the race detector: the
# cascade preset, the checked-in scenario (which must recover through the
# remote AND bottom tiers), and the per-tier MTTR comparison.
faults:
	$(GO) run -race ./cmd/nvmcp-sim -preset faults -scale tiny
	$(GO) run -race ./cmd/nvmcp-sim -scenario docs/scenarios/faults-cascade.json
	$(GO) run -race ./cmd/nvmcp-bench availability

# invariants runs the online lineage checker end to end: the invariant test
# suite (every preset must trace clean, corrupted streams must be flagged)
# and the introspection handlers under the race detector, then an explicit
# strict run of the fault cascade — a violation fails the command. The shard
# determinism suite rides along: byte-identical artifacts at any GOMAXPROCS
# is an invariant of the partitioned engine. The behaviour golden pins every
# tiny preset's event stream, RunReport and checksum, so a pure performance
# change must leave testdata/behaviour.golden.json untouched; the trace golden
# pins the same presets' Chrome traces (plus one run with quiesce spans) in
# testdata/trace.golden.json; the experiments
# golden does the same for the quick-scale result of every paper experiment
# in the experiments.All table but fleet. The bus consumers fold the merged
# stream of a sharded run: slo-paper at paper scale on two shards, with strict
# lineage, SLO and drift, must pass and must not fall back to the serial
# engine (no shard-fallback event on its bus). Last, every paper experiment
# runs at GOMAXPROCS 1 and 4: the host's width must not change a printed
# figure (wall-clock "completed in" lines aside).
invariants:
	$(GO) test -race ./internal/lineage/ ./internal/introspect/
	$(GO) test -race -run 'TestShardDeterminism|TestBehaviourGolden|TestTraceGolden' ./internal/cluster/
	$(GO) test -race -run TestQuickGolden ./internal/experiments/
	$(GO) run ./cmd/nvmcp-sim -preset faults -scale tiny -invariants
	$(GO) run ./cmd/nvmcp-sim -scenario docs/scenarios/zone-outage.json -invariants
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/nvmcp-sim -preset slo-paper -scale paper -shards 2 -invariants -slo-strict -drift-strict \
		-events-out "$$tmp/events.jsonl" > "$$tmp/out" || { cat "$$tmp/out"; exit 1; }; \
	if grep -q shard-fallback "$$tmp/events.jsonl"; then \
		echo "slo-paper -shards 2 fell back to the serial engine:"; grep shard-fallback "$$tmp/events.jsonl"; exit 1; \
	fi; echo "slo-paper -shards 2: sharded, lineage/SLO/drift strict and clean"
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/nvmcp-bench" ./cmd/nvmcp-bench && \
	for p in 1 4; do \
		GOMAXPROCS=$$p "$$tmp/nvmcp-bench" -scale quick > "$$tmp/raw$$p" 2>/dev/null || exit 1; \
		grep -v 'completed in' "$$tmp/raw$$p" > "$$tmp/out$$p"; \
	done && \
	cmp "$$tmp/out1" "$$tmp/out4" && echo "nvmcp-bench -scale quick: identical at GOMAXPROCS 1 and 4"

# fleet is the fleet-scale chaos gate: the topology / placement /
# survivability test suites under the race detector, the fleet end-to-end
# tests in the cluster package (-short skips the 1k-node determinism audit,
# which `make race` already runs), and the checked-in must-survive artifact:
# a whole-zone loss under spread placement must recover every chunk with the
# lineage invariant checker on, emitting the stress-report pair as it goes.
fleet:
	$(GO) test -race ./internal/topo/ ./internal/policy/ ./internal/stress/ ./internal/scenario/
	$(GO) test -race -short -run 'TestFleet|TestZoneOutage' ./internal/cluster/
	$(GO) run -race ./cmd/nvmcp-sim -scenario docs/scenarios/zone-outage.json -invariants -stress-report-out bench/fleet-check.html

# serve is the control-plane gate: the admission/backpressure and HTTP API
# suites under the race detector, then the end-to-end serve tests, which
# build the real nvmcp-sim binary, boot `-serve` on an ephemeral port, drive
# it over HTTP, and hold the served checksum to the batch run plus the live
# zone-outage injection to a lossless replanned recovery.
serve:
	$(GO) test -race ./internal/controlplane/
	$(GO) test -count=1 -run 'TestServe' ./cmd/nvmcp-sim/

# slo runs the SLO engine gate: the evaluator/report/diff test suite, both
# SLO presets in strict mode (any objective breach fails the command), a
# regression diff of a fresh slo-paper report against the checked-in
# baseline (the simulation is deterministic, so the reports must agree),
# and a must-fail check that a breaching scenario exits non-zero.
slo:
	$(GO) test -race ./internal/slo/
	$(GO) run ./cmd/nvmcp-sim -preset slo-paper -scale tiny -slo-strict -slo-report-out bench/slo-check.html
	$(GO) run ./cmd/nvmcp-sim -preset slo-faults -scale tiny -slo-strict
	$(GO) run ./cmd/nvmcp-analyze -diff bench/baseline/slo-paper.json bench/slo-check.json
	@if $(GO) run ./cmd/nvmcp-sim -scenario docs/scenarios/slo-breach.json -slo-strict >/dev/null 2>&1; then \
		echo "slo-breach scenario passed strict mode — the gate is not gating"; exit 1; \
	else echo "slo-breach correctly fails strict mode"; fi

# drift runs the model-drift observatory gate: the estimator/report test
# suite under the race detector, the slo-paper preset with its drift limits
# in strict mode at paper scale (the measured estimators must stay within
# the preset's tolerance of the offline §III model), and a must-fire check:
# a phase-shifting workload whose re-dirty regime breaks the model's
# assumptions must trip the drift gate with a non-zero exit.
drift:
	$(GO) test -race ./internal/drift/
	$(GO) run ./cmd/nvmcp-sim -preset slo-paper -scale paper -drift-strict -drift-report-out bench/drift-check.html
	@if $(GO) run ./cmd/nvmcp-sim -scenario docs/scenarios/drift-breach.json -drift-strict >/dev/null 2>&1; then \
		echo "drift-breach scenario passed strict mode — the gate is not gating"; exit 1; \
	else echo "drift-breach correctly fails strict mode"; fi

# ci is the gate the workflow runs: lint (fmt + vet + grep idioms + the link
# check), the full test suite under the race detector (obs publication
# crosses host goroutines), the preset and fault-cascade smoke sweeps, the lineage
# invariant gate, the SLO gate, the model-drift gate, the fleet-scale chaos
# gate, the control-plane serve gate, the benchmark harness module, every fuzz
# target for 10 s, and the perf regression check against the checked-in
# baseline.
ci: lint race presets faults invariants slo drift fleet serve e2e fuzz bench-check

# bench refreshes the perf records: the testing.B suites (sim kernel,
# resource layer, paper end-to-end) plus the nvmcp-perf probes, which write
# BENCH_<id>.json into bench/. Promote a run to the regression baseline with
#   cp bench/BENCH_*.json bench/baseline/
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/ ./internal/resource/
	$(GO) run ./cmd/nvmcp-perf -out bench

# bench-check re-runs the probes and fails on a >20% wall-time regression
# against the checked-in baseline. The fleet-shards records are gated per
# shard count, so losing parallel speedup trips the check even when the
# serial engine is unchanged.
bench-check:
	$(GO) run ./cmd/nvmcp-perf -check bench/baseline

# bench-shards sweeps the 16-node fleet configuration over 1/2/4/8 event-
# engine shards and refreshes the BENCH_fleet-shards-<n>.json records.
bench-shards:
	$(GO) run ./cmd/nvmcp-perf -out bench -only fleet-shards

clean:
	$(GO) clean ./...
