# pared — build, test and reproduce targets.

GO ?= go

.PHONY: all build test race assert fuzz-smoke bench bench-counts bench-ab bench-alloc-baseline bench-alloc-guard cover reproduce full-assert clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# The suite includes nomap_test.go, the determinism guard: the non-test code
# of core, graph, partition, pared, refine, forest, fem, la and experiments
# names no map type, so map iteration order cannot reach a partition, a mesh,
# a migration, a solution or a printed figure.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the test suite with the runtime invariant layer compiled in (mesh
# conformity, weight bookkeeping, every KL move selection against a
# brute-force rescan, collective-ordering detection — see internal/check).
assert:
	$(GO) test -tags paredassert ./...

# Ten seconds of each fuzz target: the decoders of everything that arrives
# off the wire and indexes something (migration payloads, P2 weight records
# written whole or as the changed trees' records onto a kept G, whose kept
# cuts must be the written G's, the P3 owner delta, the distributed
# refinement's move words), and five
# oracles: the distributed sweep against the per-round-exchange sweep it
# replaced (final parts and applied moves, soft and hard balance, on 1, 2, 3
# and 8 ranks), the interpolation estimator against its bit-for-bit reference
# on raw simplex coordinates (−0, negatives, subnormals), the KL move selector
# against the boundary scan on small random graphs (part numbers aliasing in
# its bit sets, edge weights past its int16 cache), the refinement path's
# hash index against a Go map (keys that share home slots and wrap past the
# table's end, so deletion shifts entries back across it), and repeated
# AdaptOnce passes with a shared estimator, which sweep only the leaves born
# since and skip a Coarsen that cannot remove anything, against the full
# passes of an uncomparable wrapper (node and vertex tables byte-equal after
# tolerance changes, tree splices and foreign coarsening). go test -fuzz
# takes one target per invocation; the seed corpora alone run under plain
# `make test`. FuzzRunKL and FuzzDistRefineSweep run about ten times slower
# per input than the decoders, and the default minimization of each
# new-coverage input would eat their ten seconds, so they minimize nothing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayloads$$' -fuzztime 10s ./internal/forest
	$(GO) test -run '^$$' -fuzz '^FuzzWeightRecords$$' -fuzztime 10s ./internal/pared
	$(GO) test -run '^$$' -fuzz '^FuzzUnpackOwnerDelta$$' -fuzztime 10s ./internal/pared
	$(GO) test -run '^$$' -fuzz '^FuzzResolveMoves$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDistRefineSweep$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRunKL$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzInterpolationEstimator$$' -fuzztime 10s ./internal/fem
	$(GO) test -run '^$$' -fuzz '^FuzzMap$$' -fuzztime 10s ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzAdaptPasses$$' -fuzztime 10s ./internal/refine

bench:
	$(GO) test -bench=. -benchmem ./...

# Exact guard on what the cycle benchmark decides: on all seven BENCHMARK.json
# workloads, at the baseline's seed and rep count, no verification check may
# fail and cut_mean, imbalance_mean and migrated_frac must equal
# bench/BASELINE.json as printed JSON numbers (the diff also catches a missing
# or renamed workload). These are deterministic, so there is no tolerance to
# tune; timings are not compared here. This recipe and the two alloc-guard
# recipes write their intermediate files into a fresh `mktemp -d` directory
# each run, so concurrent runs do not overwrite each other's files; it is
# removed on success and kept for inspection on failure.
COUNTS = [.workloads[] | {name, cut_mean: .end_to_end.cut_mean.value, imbalance_mean: .end_to_end.imbalance_mean.value, migrated_frac: .end_to_end.migrated_frac.value}]

bench-counts:
	d=$$(mktemp -d) && \
	$(GO) run ./bench -seed 1 -reps 5 -trace 0 -json $$d/pared-bench.json && \
	jq -e '[.workloads[].checks_failed] | all(. == 0)' $$d/pared-bench.json && \
	jq '$(COUNTS)' bench/BASELINE.json > $$d/pared-counts-want.json && \
	jq '$(COUNTS)' $$d/pared-bench.json > $$d/pared-counts-got.json && \
	diff $$d/pared-counts-want.json $$d/pared-counts-got.json && \
	rm -r $$d

# The A/B protocol of a performance claim (cmd/benchab): BASE exported into
# .bench_build/ab-base/ and the working tree copied into .bench_build/ab-head/
# before the first pair, PAIRS alternating runs of the unmodified
# BENCHMARK.json command on the two copies, one table of medians with
# quartiles per end-to-end metric.
#   make bench-ab BASE=HEAD~1 W=transient2d_pnr [PAIRS=10] [SEED=1]
PAIRS ?= 10
SEED ?= 1

bench-ab:
	$(GO) run ./cmd/benchab -base $(BASE) -workload $(W) -pairs $(PAIRS) -seed $(SEED)

# Allocation budget of the hot-path packages. BENCH_allocs.json pins
# allocs/op for every benchmark of
# kern/la/graph/core/partition-sfc/par/forest/refine; regenerate it with
# bench-alloc-baseline after a deliberate change to an allocation profile. The
# SFC sort and band-assignment kernels are pinned at zero allocations: the
# coordinator-free rebalance path must stay heap-silent in steady state. So are
# the par scalar subgroup collectives and the subgroup move exchange:
# sub-communicator traffic reuses per-Comm scratch, and the hierarchical
# rebalance path leans on that every epoch. So are the leaf sweep
# (forest.VisitLeaves), the tree-boundary descent (forest.VisitRootBoundary),
# a Coarsen call that approves nothing and an AdaptOnce pass repeated at its
# estimator's fixed point: every per-epoch pass is built on the first, the
# engine's shared set, P1 weights and dof plan on the second, every Adapt
# with coarsening that is not a repeat pays the third, and the fourth is the
# second and third Adapt pass of an epoch that changes nothing, which sweeps
# no leaf and skips its Coarsen. So are both sides of a tree migration: a tree
# appended to a lane with room for it (forest.AppendTree) and a lane decoded
# into one reused payload and spliced in (forest.DecodeEach, InsertTree),
# which every migrated tree pays once on each side.
ALLOC_PKGS = ./internal/kern ./internal/la ./internal/graph ./internal/core ./internal/partition/sfc ./internal/par ./internal/forest ./internal/refine
# The distributed solve at the cycle benchmark's oversubscription: 4 ranks on
# GOMAXPROCS=2, where kern.Workers() is 1 inside every rank; and a holder of
# G writing a record of every tree onto its kept G (serial, pinned at zero),
# the largest write a decision makes on every rank under the replicated and
# hier strategies.
ALLOC_SOLVE = GOMAXPROCS=2 $(GO) test -run '^$$' -bench '^(BenchmarkDistCGSolve|BenchmarkWriteRecords)$$' -benchmem ./internal/pared

bench-alloc-baseline:
	d=$$(mktemp -d) && \
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem $(ALLOC_PKGS) > $$d/allocguard0.txt && \
	$(ALLOC_SOLVE) > $$d/allocguard0s.txt && \
	$(GO) run ./cmd/benchguard -write-baseline BENCH_allocs.json $$d/allocguard0.txt $$d/allocguard0s.txt && \
	rm -r $$d

# Allocation regression guard: fresh -benchmem runs (best-of-2) must stay
# within 20% of BENCH_allocs.json per benchmark — and zero-alloc baselines
# (SpMV, Dot, the KL boundary scan) admit no allocations at all. Catches a
# reintroduced per-op allocation (interface boxing, literal in a kernel) as a
# CI failure. The package benchmarks run at GOMAXPROCS=1: with more workers
# kern spawns goroutines and the counts depend on the machine; those pins are
# of the single-worker path. BenchmarkDistCGSolve runs at GOMAXPROCS=2, fewer
# cores than ranks, which is the shape of every BENCHMARK.json workload: there
# the ranks own the cores, kern runs inline in each rank, and the count is the
# same on any machine.
bench-alloc-guard:
	d=$$(mktemp -d) && \
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem $(ALLOC_PKGS) > $$d/allocguard1.txt && \
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench . -benchmem $(ALLOC_PKGS) > $$d/allocguard2.txt && \
	$(ALLOC_SOLVE) > $$d/allocguard1s.txt && \
	$(ALLOC_SOLVE) > $$d/allocguard2s.txt && \
	$(GO) run ./cmd/benchguard -baseline BENCH_allocs.json \
		$$d/allocguard1.txt $$d/allocguard2.txt $$d/allocguard1s.txt $$d/allocguard2s.txt && \
	rm -r $$d

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

# Six files under out/ are committed (the results EXPERIMENTS.md quotes), so
# only what git does not track goes.
clean:
	rm -rf .bench_build cover.out
	git clean -fdxq out
