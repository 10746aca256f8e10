# Cloud4Home / VStore++ — common workflows.

GO ?= go

.PHONY: all build vet lint lint-syntactic lint-typed lint-dataflow lint-concurrency test race check bench profile repro examples clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# All four analyzer tiers in one process: the module is parsed and
# type-checked once, and every downstream engine (call graph, lock
# flow, def-use, concurrency) is computed once and shared across rules.
# Findings are fatal; see DESIGN.md "Static analysis & invariants".
lint:
	$(GO) run ./cmd/c4h-vet ./...

# Individual tiers, for bisecting a failure or a fast first signal.
# Each is a separate process, so running several re-loads the module;
# prefer plain `lint` for the full gate.

# Parse-only rules (wallclock, globalrand, lockdiscipline, layering,
# goroleak): no type information, fastest tier.
lint-syntactic:
	$(GO) run ./cmd/c4h-vet -rule syntactic ./...

# Type-checks the module and runs the interprocedural rules
# (lockorder, guardedfield, mapiter, chanhold) over the call graph.
lint-typed:
	$(GO) run ./cmd/c4h-vet -rule typed ./...

# The SSA-lite def-use engine (detflow, guardescape, errsink,
# hotalloc) — taint propagation through per-function assignment graphs
# with one-call-deep summaries.
lint-dataflow:
	$(GO) run ./cmd/c4h-vet -rule dataflow ./...

# Goroutine-aware rules (atomicmix, spawnrace, condwait, arenaowner):
# spawn-site tracking, sync-edge modeling, and arena ownership on top
# of the lock-flow and def-use engines.
lint-concurrency:
	$(GO) run ./cmd/c4h-vet -rule concurrency ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Everything CI runs, in CI's order.
check: build vet lint test race

# One iteration of every benchmark, with the paper-reproduction metrics.
# The stream also lands, machine-readable, in BENCH_baseline.json. One P
# (-cpu 1) keeps one-iteration allocation counts independent of which
# P's sync.Pool a goroutine lands on; CI's bench job runs the same way.
bench:
	$(GO) test -bench=. -cpu 1 -benchmem -benchtime=1x ./... | $(GO) run ./cmd/c4h-benchjson -o BENCH_baseline.json

# Profile the hot-path experiment: CPU + allocation profiles and a
# runtime execution trace. See DESIGN.md ("Hot-path performance") for
# how to read them.
profile:
	$(GO) run ./cmd/c4h-bench -exp hotpath -workers 4 -cpuprofile cpu.prof -memprofile mem.prof -trace trace.out
	@echo "inspect with:"
	@echo "  go tool pprof -top cpu.prof"
	@echo "  go tool pprof -top -sample_index=alloc_space mem.prof"
	@echo "  go tool trace trace.out"

# Regenerate every table and figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/c4h-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/surveillance
	$(GO) run ./examples/mediaconv
	$(GO) run ./examples/neighborhood

clean:
	$(GO) clean ./...
