# Convenience targets for the BSP-vs-LogP reproduction.

GO ?= go

.PHONY: all test lint race fuzz audit audit-report bench bench-smoke bench-netsim bench-report bench-diff bench-scale bench-scale-report experiments examples cover clean

all: test

test:
	$(GO) vet ./...
	$(GO) test ./...

# Static analysis: go vet plus the project's own go/analysis suite
# (determinism, procshare, apidiscipline, costcharge, and the
# allocation-discipline pair allocdiscipline + hotloop, which correlate
# the compiler's own escape verdicts from `go build -gcflags=-m` with
# the //hot:path-annotated hot set — see DESIGN.md), and a gofmt check.
# bsplogpvet exits 1 on any finding.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/bsplogpvet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

# Differential fuzzing of the LogP engine against the reference
# interpreter (internal/logp/reference): the Program form and the
# Script form must each produce the reference's Results, traces, and
# audit metrics. The engines' scheduling structures — the shared
# ring-plus-heap run queue and the logp timing wheel — are fuzzed
# against plain binary heaps, the Theorem 2 router's merge-split
# against a sort oracle, and the netsim Router against an independent
# reference router.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEngineMatchesReference -fuzztime 20s ./internal/logp/
	$(GO) test -run '^$$' -fuzz FuzzScriptEquivalence -fuzztime 10s ./internal/logp/
	$(GO) test -run '^$$' -fuzz FuzzEventWheel -fuzztime 10s ./internal/logp/
	$(GO) test -run '^$$' -fuzz FuzzQueue -fuzztime 10s ./internal/runq/
	$(GO) test -run '^$$' -fuzz FuzzMergeSplit -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzRouterMatchesReference -fuzztime 10s ./internal/netsim/

# Run the quick experiment suite under the streaming LogP invariant
# auditor; fails on any model-invariant violation (see EXPERIMENTS.md).
audit:
	$(GO) run ./cmd/bsplogp -all -quick -audit -auditout /tmp/AUDIT_logp.json

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash, without CI-length timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Microbenchmarks of the packet-network simulator hot path (Route,
# Inject/Advance, MeasureGL). BenchmarkRoute must stay at ~0 allocs/op
# in steady state; use a long -benchtime so the first iteration's
# growth of the packet pool and move staging amortizes away. The
# table1(256) case times one netsim-gl-p256 benchmark op (about 0.1 s
# each), so it runs 10 iterations.
bench-netsim:
	$(GO) test -run '^$$' -bench 'BenchmarkRoute|BenchmarkAdvance|BenchmarkMeasureGL/hypercube' -benchtime 1000x -benchmem ./internal/netsim/
	$(GO) test -run '^$$' -bench 'BenchmarkMeasureGL/table1' -benchtime 10x -benchmem ./internal/netsim/

# Regenerate the checked-in BENCH_logp.json (see EXPERIMENTS.md).
# Median of 5 repetitions smooths scheduler noise out of the report.
bench-report:
	$(GO) run ./cmd/bsplogp -bench -quick -benchcount 5 -benchout BENCH_logp.json

# Compare a fresh benchmark run against the checked-in report; exits
# nonzero when any experiment's wall time regresses more than 20%.
bench-diff:
	$(GO) run ./cmd/bsplogp -bench -quick -benchcount 3 -benchout /tmp/BENCH_new.json
	$(GO) run ./cmd/bsplogp -benchdiff BENCH_logp.json /tmp/BENCH_new.json

# Smoke the large-p scale experiments (E14/E15/E16): -quick skips the
# p=10^6 entries and runs the rest at p=10^5, a few seconds of wall
# time — the CI guard that the O(active) engines stay live. The alloc
# guards run first: they pin warm steady-state allocations per Run
# (sequential 1, cycle engine 1, E16 a small documented constant, the
# Theorem 2 deterministic router the same count at every h), so
# an arena or slab-reuse regression fails here before
# it shows up as a bytes/proc drift in BENCH_logp.json.
bench-scale:
	$(GO) test -run 'SteadyStateAlloc|TestArena' ./internal/logp/ ./internal/core/ ./internal/bench/
	$(GO) run ./cmd/bsplogp -scale -quick

# Full scale run at p up to 10^6, merging events/sec and bytes/proc
# rows into the checked-in BENCH_logp.json (see EXPERIMENTS.md).
# benchcount 2 makes the reported medians describe a warm repetition:
# the second rep reuses the pooled machines and arenas, so bytes/proc
# measures the steady state the alloc guards pin, not construction.
bench-scale-report:
	$(GO) run ./cmd/bsplogp -scale -bench -benchcount 2 -benchout BENCH_logp.json

# Regenerate the checked-in AUDIT_logp.json (see EXPERIMENTS.md).
audit-report:
	$(GO) run ./cmd/bsplogp -all -quick -audit -auditout AUDIT_logp.json

experiments:
	$(GO) run ./cmd/bsplogp -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/samplesort
	$(GO) run ./examples/matmul
	$(GO) run ./examples/broadcast
	$(GO) run ./examples/hotspot
	$(GO) run ./examples/radixsort
	$(GO) run ./examples/models

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
