package core

import "testing"

// runKL is the repartitioner's inner loop; its allocs/op are guarded by
// BENCH_allocs.json (make bench-alloc-guard), so a change that reintroduces
// per-selection heap traffic fails CI rather than landing silently. The name
// predates the move cache: BENCH_allocs.json and cmd/benchguard's fixtures
// pin it.

func BenchmarkRunKLScan(b *testing.B) {
	p := 8
	g, old := refinedScenario(24, p, 5)
	cfg := Config{}.withDefaults()
	parts := make([]int32, len(old))
	s := new(klScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, old)
		runKL(s, g, parts, old, p, cfg, false)
	}
}

// BenchmarkRunKLPolish is the hard-balance half on the same scenario: the
// polish runKL from the soft run's forced-balanced result, as Repartition
// runs it. Warm, it allocates nothing (BENCH_allocs.json pins 0).
func BenchmarkRunKLPolish(b *testing.B) {
	p := 8
	g, old := refinedScenario(24, p, 5)
	cfg := Config{}.withDefaults()
	s := new(klScratch)
	start := append([]int32(nil), old...)
	runKL(s, g, start, old, p, cfg, false)
	forceBalance(s, g, start, old, p, cfg)
	parts := append([]int32(nil), start...)
	runKL(s, g, parts, old, p, cfg, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, start)
		runKL(s, g, parts, old, p, cfg, true)
	}
}

// BenchmarkDistRefineSweep pins the distributed sweep's steady state through
// the Serial loopback exchanger: after the scratch warms, scoring, packing,
// exchange and resolution must allocate nothing (BENCH_allocs.json pins 0).
func BenchmarkDistRefineSweep(b *testing.B) {
	p := 8
	g, old := refinedScenario(24, p, 5)
	cfg := Config{}.withDefaults()
	cfg.DistRefine = Serial
	parts := make([]int32, len(old))
	s := new(klScratch)
	copy(parts, old)
	distRefineSweep(s, g, parts, old, p, cfg, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, old)
		distRefineSweep(s, g, parts, old, p, cfg, false)
	}
}
