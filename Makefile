# pared — build, test and reproduce targets.

GO ?= go

.PHONY: all build test race lint assert bench bench-json bench-guard bench-alloc-baseline bench-alloc-guard cover reproduce full-assert clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Project-specific static analysis (see internal/lint), all ten checks:
# per-file — map-iteration order in deterministic packages, raw concurrency
# outside internal/par and internal/kern, float ==, dropped errors, sleeps;
# flow-aware — rank-gated collectives (deadlocks), impure kern bodies,
# *Scratch aliasing across concurrency, order-dependent float accumulation;
# path-sensitive — rank-divergent collective schedules (spmd, per-path trace
# comparison). Suppressions that suppress nothing are findings too. ./...
# includes internal/lint and cmd/paredlint: the linter lints itself.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/paredlint ./...

# Run the test suite with the runtime invariant layer compiled in (mesh
# conformity, weight bookkeeping, gain-table brute-force cross-checks,
# collective-ordering detection — see internal/check).
assert:
	$(GO) test -tags paredassert ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf snapshot at Quick scale. BENCH_pnr.json is committed
# at the repo root: regenerating it before a perf-sensitive change and
# diffing after makes the repo's performance trajectory reviewable.
bench-json:
	$(GO) run ./cmd/pnrbench -exp all -quick -json BENCH_pnr.json > /dev/null

# Regression guard over the committed baseline: two fresh quick runs, scored
# best-of-2, must stay within 20% of BENCH_pnr.json on the guarded
# experiments (see cmd/benchguard). The engine runs in every rebalance mode
# (-mode all emits one engine_<name> record per algorithm registered in
# internal/pared, engine for pnr, plus engine_sfc_3d), and the coordinator
# pipeline, the coordinator-free SFC pipeline (2D and 3D keys), the distributed
# refinement pipeline and the hierarchical node × core pipeline are all
# guarded, so a regression in any rebalance path fails CI on every PR.
bench-guard:
	$(GO) run ./cmd/pnrbench -exp fig4 -quick -json /tmp/benchguard1.json > /dev/null
	$(GO) run ./cmd/pnrbench -exp transient -quick -json /tmp/benchguard2.json > /dev/null
	$(GO) run ./cmd/pnrbench -exp fig4 -quick -json /tmp/benchguard3.json > /dev/null
	$(GO) run ./cmd/pnrbench -exp transient -quick -json /tmp/benchguard4.json > /dev/null
	$(GO) run ./cmd/pnrbench -exp engine -mode all -quick -json /tmp/benchguard5.json > /dev/null
	$(GO) run ./cmd/pnrbench -exp engine -mode all -quick -json /tmp/benchguard6.json > /dev/null
	$(GO) run ./cmd/benchguard -baseline BENCH_pnr.json -records fig4,transient,engine,engine_sfc,engine_sfc_3d,engine_distrefine,engine_hier \
		/tmp/benchguard1.json /tmp/benchguard2.json /tmp/benchguard3.json \
		/tmp/benchguard4.json /tmp/benchguard5.json /tmp/benchguard6.json

# Allocation budget of the hot-path packages. BENCH_allocs.json pins
# allocs/op for every benchmark of kern/la/graph/core/partition-sfc/par;
# regenerate it with bench-alloc-baseline after a deliberate change to an
# allocation profile. The SFC sort and band-assignment kernels are pinned at
# zero allocations: the coordinator-free rebalance path must stay heap-silent
# in steady state. So are the par scalar subgroup collectives and the
# subgroup move exchange: sub-communicator traffic reuses per-Comm scratch,
# and the hierarchical rebalance path leans on that every epoch.
ALLOC_PKGS = ./internal/kern ./internal/la ./internal/graph ./internal/core ./internal/partition/sfc ./internal/par

bench-alloc-baseline:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem $(ALLOC_PKGS) > /tmp/allocguard0.txt
	$(GO) run ./cmd/benchguard -allocs -write-baseline BENCH_allocs.json /tmp/allocguard0.txt

# Allocation regression guard: fresh -benchmem runs (best-of-2) must stay
# within 20% of BENCH_allocs.json per benchmark — and zero-alloc baselines
# (SpMV, Dot, the KL boundary scan) admit no allocations at all. Catches a
# reintroduced per-op allocation (interface boxing, literal in a kernel) as a
# CI failure. GOMAXPROCS=1 in both recipes: with more workers kern spawns
# goroutines and the counts depend on the machine; the pins are of the
# single-worker path.
bench-alloc-guard:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem $(ALLOC_PKGS) > /tmp/allocguard1.txt
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem $(ALLOC_PKGS) > /tmp/allocguard2.txt
	$(GO) run ./cmd/benchguard -allocs -baseline BENCH_allocs.json \
		/tmp/allocguard1.txt /tmp/allocguard2.txt

cover:
	$(GO) test ./internal/... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper (~10 minutes).
reproduce:
	mkdir -p out
	$(GO) run ./cmd/pnrbench -exp all -svg out | tee out/results_full.log

# Paper-scale assertion tests (the EXPERIMENTS.md claims, executable).
full-assert:
	PARED_FULL=1 $(GO) test ./internal/experiments -run TestFullScale -v -timeout 30m

clean:
	rm -rf out cover.out
