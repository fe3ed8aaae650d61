# firestarter-go — common tasks

GO ?= go

.PHONY: all build test vet bench bench-smoke obsv-smoke chaos-smoke trace-smoke fleet-smoke openloop-smoke domains-smoke diff-smoke replay-smoke perf-test perf eval examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Regenerate every table and figure of the paper (plus extensions).
eval:
	$(GO) run ./cmd/firebench

# The same experiments as Go benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# A fast end-to-end pass over every experiment with a reduced workload —
# CI smoke coverage for the full firebench surface, parallel harness on.
bench-smoke:
	$(GO) run ./cmd/firebench -requests 40 -faults 4 -concurrency 2 -parallel 4 > /dev/null
	@echo bench-smoke OK

# End-to-end observability smoke: drive the hardened nginx analog with
# spans, metrics and the guest profiler exported as JSONL, then lint the
# three files (schema + monotonic cycles + exactly one profile total).
# The Observe run itself fails if metrics totals don't reconcile with the
# runtime counters or profiler attribution doesn't sum to machine cycles.
obsv-smoke:
	$(GO) run ./cmd/firebench -experiment nginx -requests 60 \
		-trace-out /tmp/fire-trace.jsonl \
		-metrics-out /tmp/fire-metrics.jsonl \
		-profile /tmp/fire-profile.jsonl > /dev/null
	$(GO) run ./cmd/obsvlint -schema trace /tmp/fire-trace.jsonl
	$(GO) run ./cmd/obsvlint -schema metrics /tmp/fire-metrics.jsonl
	$(GO) run ./cmd/obsvlint -schema profile /tmp/fire-profile.jsonl
	@echo obsv-smoke OK

# Chaos soak smoke: a small seeded fault sweep (fail-stop + fail-silent,
# all five apps) under the full recovery escalation ladder, with the
# campaign-global span log linted. The campaign itself fails if any
# incarnation death is not attributed to a ladder rung or the stats /
# metrics / span accounting surfaces disagree.
chaos-smoke:
	$(GO) run ./cmd/firebench -experiment chaos -requests 30 -faults 2 \
		-concurrency 2 -parallel 4 \
		-trace-out /tmp/fire-chaos.jsonl > /dev/null
	$(GO) run ./cmd/obsvlint -schema trace /tmp/fire-chaos.jsonl
	@echo chaos-smoke OK

# Request-tracing smoke: the full round trip. A chaos soak exports the
# campaign-global span log; obsvlint validates schema AND trace-ID
# causality (every req-start reaches exactly one terminal, no orphaned
# trace references); firetrace must pass -strict and emit the analysis,
# Chrome trace and folded stacks; then the chaos run and an nginx
# observability run are repeated and every artifact must compare
# byte-for-byte — the determinism contract behind all trace tooling.
trace-smoke:
	$(GO) build -o /tmp/firebench-bin ./cmd/firebench
	$(GO) build -o /tmp/obsvlint-bin ./cmd/obsvlint
	$(GO) build -o /tmp/firetrace-bin ./cmd/firetrace
	/tmp/firebench-bin -experiment chaos -requests 30 -faults 2 \
		-concurrency 2 -parallel 4 \
		-trace-out /tmp/fire-trace-smoke.jsonl > /dev/null
	/tmp/obsvlint-bin -schema trace -causality /tmp/fire-trace-smoke.jsonl
	/tmp/firebench-bin -experiment nginx -requests 60 \
		-trace-out /tmp/fire-trace-nginx.jsonl \
		-profile /tmp/fire-trace-prof.jsonl > /dev/null
	/tmp/obsvlint-bin -schema trace -causality /tmp/fire-trace-nginx.jsonl
	/tmp/firetrace-bin -strict -breakdown -timeline 3 \
		-chrome /tmp/fire-trace-chrome.json \
		-folded /tmp/fire-trace-folded.txt -profile /tmp/fire-trace-prof.jsonl \
		/tmp/fire-trace-smoke.jsonl > /tmp/fire-trace-report.txt
	/tmp/firebench-bin -experiment chaos -requests 30 -faults 2 \
		-concurrency 2 -parallel 4 \
		-trace-out /tmp/fire-trace-smoke2.jsonl > /dev/null
	cmp /tmp/fire-trace-smoke.jsonl /tmp/fire-trace-smoke2.jsonl
	cp /tmp/fire-trace-smoke2.jsonl /tmp/fire-trace-smoke.jsonl
	/tmp/firetrace-bin -strict -breakdown -timeline 3 \
		-chrome /tmp/fire-trace-chrome2.json \
		/tmp/fire-trace-smoke.jsonl > /tmp/fire-trace-report2.txt
	cmp /tmp/fire-trace-report.txt /tmp/fire-trace-report2.txt
	cmp /tmp/fire-trace-chrome.json /tmp/fire-trace-chrome2.json
	@echo trace-smoke OK

# Fleet tier smoke: the replica-scaling experiment (chaos matrix behind
# the deterministic L4 balancer) at 1 and 2 replicas, serial vs
# -parallel 4 — the rendered table and the experiment-global span log
# must compare byte-for-byte, and the span log must pass the trace
# schema AND trace-ID causality (every balancer-level req-start reaches
# exactly one terminal across fail-overs and drain hand-offs). The
# experiment itself fails on any stats/metrics/span reconciliation
# mismatch or silent incarnation death.
fleet-smoke:
	$(GO) build -o /tmp/firebench-bin ./cmd/firebench
	$(GO) build -o /tmp/obsvlint-bin ./cmd/obsvlint
	/tmp/firebench-bin -experiment fleet -requests 30 -concurrency 2 \
		-replicas 1,2 \
		-trace-out /tmp/fire-fleet.jsonl > /tmp/fire-fleet-report.txt
	/tmp/obsvlint-bin -schema trace -causality /tmp/fire-fleet.jsonl
	/tmp/firebench-bin -experiment fleet -requests 30 -concurrency 2 \
		-replicas 1,2 -parallel 4 \
		-trace-out /tmp/fire-fleet2.jsonl > /tmp/fire-fleet-report2.txt
	cmp /tmp/fire-fleet-report.txt /tmp/fire-fleet-report2.txt
	cmp /tmp/fire-fleet.jsonl /tmp/fire-fleet2.jsonl
	@echo fleet-smoke OK

# Open-loop workload smoke: the offered-load sweep (Poisson arrivals at
# fixed multiples of the calibrated service rate, 20k-client population
# with churn, slow readers, fragmentation and pipelining), serial vs
# -parallel 4 — the rendered latency-vs-load ladder and the
# experiment-global span log must compare byte-for-byte, and the span
# log must pass the trace schema AND trace-ID causality (every offered
# arrival reaches exactly one terminal, shed arrivals included). The
# experiment itself fails on any stats/metrics/span reconciliation
# mismatch or silent incarnation death.
openloop-smoke:
	$(GO) build -o /tmp/firebench-bin ./cmd/firebench
	$(GO) build -o /tmp/obsvlint-bin ./cmd/obsvlint
	/tmp/firebench-bin -experiment openloop -requests 60 \
		-trace-out /tmp/fire-openloop.jsonl > /tmp/fire-openloop-report.txt
	/tmp/obsvlint-bin -schema trace -causality /tmp/fire-openloop.jsonl
	/tmp/firebench-bin -experiment openloop -requests 60 -parallel 4 \
		-trace-out /tmp/fire-openloop2.jsonl > /tmp/fire-openloop-report2.txt
	cmp /tmp/fire-openloop-report.txt /tmp/fire-openloop-report2.txt
	cmp /tmp/fire-openloop.jsonl /tmp/fire-openloop2.jsonl
	@echo openloop-smoke OK

# Heap-domain smoke: the undo-vs-discard ablation plus the fail-silent
# containment matrix on the arena-pooled servers, serial vs -parallel 4
# — the rendered tables and the containment span log must compare
# byte-for-byte, and the span log must pass the trace schema AND
# causality, including the domain ordering rules (a discard only after a
# crash, a switch before any non-zero-domain discard, every violation
# resolved by its crash). The experiment itself fails on any cross-
# request taint leak or stats/metrics/span reconciliation mismatch.
domains-smoke:
	$(GO) build -o /tmp/firebench-bin ./cmd/firebench
	$(GO) build -o /tmp/obsvlint-bin ./cmd/obsvlint
	/tmp/firebench-bin -experiment domains -requests 60 -faults 4 \
		-concurrency 2 \
		-trace-out /tmp/fire-domains.jsonl > /tmp/fire-domains-report.txt
	/tmp/obsvlint-bin -schema trace -causality /tmp/fire-domains.jsonl
	/tmp/firebench-bin -experiment domains -requests 60 -faults 4 \
		-concurrency 2 -parallel 4 \
		-trace-out /tmp/fire-domains2.jsonl > /tmp/fire-domains-report2.txt
	cmp /tmp/fire-domains-report.txt /tmp/fire-domains-report2.txt
	cmp /tmp/fire-domains.jsonl /tmp/fire-domains2.jsonl
	@echo domains-smoke OK

# Differential-execution smoke: the default firebench suite under the
# tree-walking interpreter and the compiled bytecode backend must render
# byte-for-byte identical output — the backend equivalence contract
# (docs/RUNTIME.md "Bytecode backend") checked end to end.
diff-smoke:
	$(GO) build -o /tmp/firebench-bin ./cmd/firebench
	/tmp/firebench-bin -backend tree -requests 40 -faults 4 \
		-concurrency 2 -parallel 4 > /tmp/fire-diff-tree.txt
	/tmp/firebench-bin -backend bytecode -requests 40 -faults 4 \
		-concurrency 2 -parallel 4 > /tmp/fire-diff-bytecode.txt
	cmp /tmp/fire-diff-tree.txt /tmp/fire-diff-bytecode.txt
	@echo diff-smoke OK

# Flight-recorder smoke: a chaos campaign with -record-out captures a
# replay manifest for every incarnation that ended unrecovered or with
# the breaker open; each one must then (a) re-execute to completion
# with every span verified against the recorded hash chain and the
# replayed stream byte-identical to the companion file, (b) halt at the
# recorded faulting instruction under the default -stop-at-cycle -1,
# and (c) survive a -reverse-step (re-execution to the boundary one
# retired instruction earlier, cross-checked against the checkpoint
# ring). Any divergence — one span, one digest — fails the build.
replay-smoke:
	$(GO) build -o /tmp/firebench-bin ./cmd/firebench
	$(GO) build -o /tmp/firetrace-bin ./cmd/firetrace
	rm -rf /tmp/fire-replay /tmp/fire-replay2
	/tmp/firebench-bin -experiment chaos -requests 24 -faults 1 \
		-concurrency 2 -seed 3 -parallel 4 \
		-record-out /tmp/fire-replay -fingerprint > /dev/null
	/tmp/firebench-bin -experiment chaos -requests 40 -faults 2 \
		-concurrency 2 -parallel 4 \
		-record-out /tmp/fire-replay2 -fingerprint > /dev/null
	ls /tmp/fire-replay/*.json /tmp/fire-replay2/*.json > /dev/null
	for m in /tmp/fire-replay/*.json /tmp/fire-replay2/*.json; do \
		/tmp/firetrace-bin -manifest $$m > /dev/null || exit 1; \
		/tmp/firetrace-bin -replay $$m -stop-at-cycle 0 \
			-replay-spans $$m.replayed.jsonl > /dev/null || exit 1; \
		cmp $$m.replayed.jsonl $${m%.json}.spans.jsonl || exit 1; \
		/tmp/firetrace-bin -replay $$m > /dev/null || exit 1; \
		/tmp/firetrace-bin -replay $$m -reverse-step -ckpt-every 1000 \
			> /dev/null || exit 1; \
	done
	@echo replay-smoke OK

# The host-side benchmark's own tests. perfbench is a separate Go module,
# so the root `go test ./...` never reaches it: this runs its pins and
# harness-identity checks (e.g. TestComposedFig7MatchesHarness,
# TestPinsCoverInputs).
perf-test:
	cd perfbench && $(GO) test ./...

# One untraced host-side benchmark run, printing the end-to-end metrics
# as JSON on the last line, e.g.
#   make perf WORKLOAD=openloop-fleet SECONDS=35
# WORKLOAD is fig7-serve, chaos-recover or openloop-fleet; see
# perfbench/README.md for traced and held-out runs.
WORKLOAD ?= openloop-fleet
SECONDS ?= 35
perf:
	python3 perfbench/run.py --workload $(WORKLOAD) --seconds $(SECONDS) --trace 0

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webserver
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/customapp

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

clean:
	rm -f coverage.out test_output.txt bench_output.txt
