GO ?= go

.PHONY: all check fmt vet staticcheck deadcode-check build test race race-parallel race-obs race-storage paritycheck trace bench benchdelta benchdelta-all scalesweep racksweep connsweep connsweep-full parallelsweep kvsweep

all: check

check: fmt vet staticcheck deadcode-check build test race race-parallel race-obs race-storage paritycheck benchdelta-all racksweep connsweep kvsweep

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Runs only when the binary is on PATH (the base image does not ship it);
# install with: go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Dead-code gate: every package under internal/ needs a non-test importer
# (in this module or the benchmark driver's), no process-wide run-default
# setter may come back — runs are configured by passing a core.RunConfig —
# and every exported function or method needs a referencing identifier
# somewhere in the module or perfbench/ (TestNoUncalledExports). The one
# setter exception is core.SetDefaultSharding, kept only for the benchmark
# driver under perfbench/.
deadcode-check:
	@fail=0; \
	imports=$$( { $(GO) list -f '{{join .Imports "\n"}}' ./... && \
		cd perfbench && $(GO) list -f '{{join .Imports "\n"}}' ./...; } | sort -u) || exit 1; \
	for p in $$($(GO) list ./internal/...); do \
		echo "$$imports" | grep -qx "$$p" || { echo "deadcode: $$p has no non-test importer"; fail=1; }; \
	done; \
	setters=$$(grep -rnE '^func (SetDefault[A-Za-z0-9_]*|Set[A-Za-z0-9_]*Lookahead)\(' \
		--include='*.go' --exclude='*_test.go' internal cmd examples | \
		grep -v '^internal/core/core.go:[0-9]*:func SetDefaultSharding('); \
	if [ -n "$$setters" ]; then \
		echo "deadcode: process-wide run-default setters (pass a core.RunConfig instead):"; \
		echo "$$setters"; fail=1; \
	fi; \
	$(GO) test -count=1 -run '^TestNoUncalledExports$$' . >/dev/null || { echo "deadcode: uncalled exports (go test -run TestNoUncalledExports .)"; fail=1; }; \
	[ $$fail -eq 0 ] && echo "deadcode-check OK"; exit $$fail

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

# Focused race check on the parallel simulation driver — including the
# adaptive width-controller, barrier-elision and mailbox-recycling paths —
# and on two experiments running at once under their own RunConfigs
# (fast; also covered by the full `race` target, kept separate so CI can
# run it on every push).
race-parallel: build
	$(GO) test -race -run 'Parallel|Adaptive|Mailbox|Static' ./internal/sim/... ./internal/experiments/...

# Focused race check on the tracing/metrics and fleet-control packages (the
# observability surfaces every other subsystem calls into concurrently).
race-obs: build
	$(GO) test -race ./internal/obs/... ./internal/fleet/...

# Focused race check on the storage fast path (blkif merging/indirect
# descriptors, blkback, the WAL/B-tree appliance and the buffer-cache
# baseline).
race-storage: build
	$(GO) test -race ./internal/storage/... ./internal/blkif/... ./internal/blkback/... ./internal/conventional/...

# Serial-vs-parallel byte-identity: the same sharded layout (-pcpus 4)
# driven single-threaded and multi-threaded must produce identical stdout,
# structured JSON, metrics and trace for every experiment in the parity set.
PARITY_EXPS = ping losssweep scalesweep connsweep racksweep kvsweep
paritycheck: build
	@$(GO) build -o /tmp/repro-parity ./cmd/repro
	@for e in $(PARITY_EXPS); do \
		/tmp/repro-parity -experiment $$e -quick -pcpus 4 \
			-json /tmp/parity_$${e}_s.json -metrics -trace /tmp/parity_$${e}_s.trace \
			> /tmp/parity_$${e}_s.out 2>/dev/null || exit 1; \
		/tmp/repro-parity -experiment $$e -quick -pcpus 4 -parallel \
			-json /tmp/parity_$${e}_p.json -metrics -trace /tmp/parity_$${e}_p.trace \
			> /tmp/parity_$${e}_p.out 2>/dev/null || exit 1; \
		cmp /tmp/parity_$${e}_s.out /tmp/parity_$${e}_p.out || { echo "parity FAIL ($$e): stdout"; exit 1; }; \
		cmp /tmp/parity_$${e}_s.json /tmp/parity_$${e}_p.json || { echo "parity FAIL ($$e): json"; exit 1; }; \
		cmp /tmp/parity_$${e}_s.trace /tmp/parity_$${e}_p.trace || { echo "parity FAIL ($$e): trace"; exit 1; }; \
		echo "parity OK: $$e (stdout+metrics, json, trace)"; \
	done

# Wall-clock fast-path microbenchmarks -> BENCH_fastpath.json ("fastpath"
# section; the recorded pre-change "baseline" section is preserved).
bench: build
	$(GO) test -run '^$$' -bench Fastpath -benchmem ./internal/bench | \
		$(GO) run ./cmd/benchjson -out BENCH_fastpath.json -section fastpath

# Re-run the fast-path benches and diff against the committed trajectory
# file; fails when ns/op or allocs/op regressed by more than 10%.
benchdelta: build
	@rm -f /tmp/bench_new.json
	$(GO) test -run '^$$' -bench Fastpath -benchmem ./internal/bench | \
		$(GO) run ./cmd/benchjson -out /tmp/bench_new.json -section fastpath
	$(GO) run ./cmd/benchjson -delta BENCH_fastpath.json /tmp/bench_new.json

# Perf CI: delta every committed BENCH_*.json against fresh output.
#  - fastpath: wall-clock microbenchmarks, re-run and diffed (benchdelta)
#  - scalesweep/racksweep: deterministic virtual-time sweeps, re-run and
#    diffed — any delta at all means the simulation changed
#  - parallel: the sim_cluster_* counters are deterministic, so they are
#    re-measured (parallelsweep -counters-only) and diffed — an epoch or
#    rendezvous count creeping up more than 10% fails CI; the wall times
#    stay host-dependent and ride along unchanged in the self-copy
#  - connsweep: full sweep is minutes of wall clock and its heap numbers are
#    host-dependent, so BENCH_connsweep.json is self-delta'd as a format
#    gate; the quick sweep is deterministic (event-queue and wheel
#    populations, probe latency, connection counts), so it is re-run and
#    diffed against BENCH_connsweep_quick.json
benchdelta-all: benchdelta
	@rm -f /tmp/bench_scalesweep_new.json /tmp/bench_racksweep_new.json /tmp/bench_parallel_new.json /tmp/bench_connsweep_quick_new.json
	$(GO) build -o /tmp/repro-bench ./cmd/repro
	/tmp/repro-bench -experiment scalesweep -json /tmp/bench_scalesweep_new.json > /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_scalesweep.json /tmp/bench_scalesweep_new.json
	/tmp/repro-bench -experiment racksweep -json /tmp/bench_racksweep_new.json > /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_racksweep.json /tmp/bench_racksweep_new.json
	cp BENCH_parallel.json /tmp/bench_parallel_new.json
	$(GO) run ./cmd/parallelsweep -counters-only -out /tmp/bench_parallel_new.json 2> /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_parallel.json /tmp/bench_parallel_new.json
	$(GO) run ./cmd/benchjson -delta BENCH_connsweep.json BENCH_connsweep.json
	/tmp/repro-bench -experiment connsweep -quick -json /tmp/bench_connsweep_quick_new.json > /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_connsweep_quick.json /tmp/bench_connsweep_quick_new.json
	@rm -f /tmp/bench_kvsweep_new.json
	/tmp/repro-bench -experiment kvsweep -json /tmp/bench_kvsweep_new.json > /dev/null
	$(GO) run ./cmd/benchjson -delta BENCH_kvsweep.json /tmp/bench_kvsweep_new.json

# Autoscaling fleet sweep -> BENCH_scalesweep.json; runs the experiment
# twice on the same seed and asserts the rendered output is byte-identical.
scalesweep: build
	$(GO) run ./cmd/repro -experiment scalesweep -json BENCH_scalesweep.json > /tmp/scalesweep.1
	$(GO) run ./cmd/repro -experiment scalesweep > /tmp/scalesweep.2
	@cat /tmp/scalesweep.1
	cmp /tmp/scalesweep.1 /tmp/scalesweep.2
	@echo "scalesweep deterministic: same-seed runs byte-identical; JSON in BENCH_scalesweep.json"

# Multi-host rack sweep (live migration + whole-host kill) ->
# BENCH_racksweep.json; runs the experiment twice on the same seed and
# asserts the rendered output is byte-identical.
racksweep: build
	$(GO) run ./cmd/repro -experiment racksweep -json BENCH_racksweep.json > /tmp/racksweep.1
	$(GO) run ./cmd/repro -experiment racksweep > /tmp/racksweep.2
	@cat /tmp/racksweep.1
	cmp /tmp/racksweep.1 /tmp/racksweep.2
	@echo "racksweep deterministic: same-seed runs byte-identical; JSON in BENCH_racksweep.json"

# Durable KV appliance sweep -> BENCH_kvsweep.json; runs the experiment
# twice on the same seed and asserts the rendered output is byte-identical.
kvsweep: build
	$(GO) run ./cmd/repro -experiment kvsweep -json BENCH_kvsweep.json > /tmp/kvsweep.1
	$(GO) run ./cmd/repro -experiment kvsweep > /tmp/kvsweep.2
	@cat /tmp/kvsweep.1
	cmp /tmp/kvsweep.1 /tmp/kvsweep.2
	@echo "kvsweep deterministic: same-seed runs byte-identical; JSON in BENCH_kvsweep.json"

# Million-connection population sweep, small-N gate -> BENCH_connsweep_quick.json;
# runs the quick sweep twice on the same seed and asserts the rendered
# output is byte-identical.
connsweep: build
	@$(GO) build -o /tmp/repro-conn ./cmd/repro
	/tmp/repro-conn -experiment connsweep -quick -json BENCH_connsweep_quick.json > /tmp/connsweep.1
	/tmp/repro-conn -experiment connsweep -quick > /tmp/connsweep.2
	cmp /tmp/connsweep.1 /tmp/connsweep.2
	@echo "connsweep deterministic: same-seed quick runs byte-identical; JSON in BENCH_connsweep_quick.json"

# Regenerate BENCH_parallel.json: scalesweep wall clock under the three
# drivers (medians over 4 runs each; host-dependent — the honest 1-core
# note is part of the file) plus the deterministic sim_cluster_* barrier
# counters from a sharded run. Re-run after changes to internal/sim.
parallelsweep: build
	$(GO) run ./cmd/parallelsweep

# Full 1M-connection sweep with heap sampling -> BENCH_connsweep.json.
# Minutes of wall clock; regenerate after changes to the TCP or timer path.
connsweep-full: build
	$(GO) run ./cmd/repro -experiment connsweep -memstats -json BENCH_connsweep.json

# Quick smoke: run one experiment with tracing and validate the output.
trace:
	$(GO) run ./cmd/repro -experiment fig10 -quick -trace /tmp/repro-trace.json -metrics
	@echo "trace written to /tmp/repro-trace.json (load in Perfetto / chrome://tracing)"
