package kern

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// withGOMAXPROCS runs f under the given GOMAXPROCS setting and restores the
// previous value. On machines with fewer cores the setting still changes
// Workers(), which is all the determinism contract depends on.
func withGOMAXPROCS(t *testing.T, procs int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

var procsUnderTest = []int{1, 2, 8}

func TestNumChunksGeometry(t *testing.T) {
	cases := []struct{ n, grain, want int }{
		{0, 8, 0}, {-3, 8, 0}, {1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {100, 7, 15},
	}
	for _, c := range cases {
		if got := NumChunks(c.n, c.grain); got != c.want {
			t.Errorf("NumChunks(%d,%d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NumChunks with grain 0 must panic")
		}
	}()
	NumChunks(4, 0)
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 10_000
	for _, procs := range procsUnderTest {
		withGOMAXPROCS(t, procs, func() {
			hits := make([]int32, n)
			For(n, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("GOMAXPROCS=%d: index %d visited %d times", procs, i, h)
				}
			}
		})
	}
}

// TestSumBitIdenticalAcrossGOMAXPROCS is the core determinism guarantee:
// floating-point reductions return byte-identical results no matter how many
// workers run, because partials combine in chunk order.
func TestSumBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 100_003)
	for i := range x {
		x[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
	}
	sum := func() float64 {
		return Sum(len(x), 1024, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += x[i]
			}
			return s
		})
	}
	var refBits uint64
	withGOMAXPROCS(t, 1, func() { refBits = math.Float64bits(sum()) })
	for _, procs := range []int{1, 2, 3, 8} {
		withGOMAXPROCS(t, procs, func() {
			for rep := 0; rep < 10; rep++ {
				if bits := math.Float64bits(sum()); bits != refBits {
					t.Fatalf("GOMAXPROCS=%d rep %d: Sum bits %016x differ from reference %016x",
						procs, rep, bits, refBits)
				}
			}
		})
	}
	// The reference must equal the explicit ordered-chunk serial evaluation.
	serial := 0.0
	for c := 0; c < NumChunks(len(x), 1024); c++ {
		lo, hi := c*1024, (c+1)*1024
		if hi > len(x) {
			hi = len(x)
		}
		s := 0.0
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		serial += s
	}
	if math.Float64bits(serial) != refBits {
		t.Fatalf("Sum %016x != ordered serial evaluation %016x", refBits, math.Float64bits(serial))
	}
}

// TestNestedCallsStayDeterministic: a body that calls back into kern gets
// its own helpers for the nested call, so nesting oversubscribes the cores
// but computes the same bits for any GOMAXPROCS and returns.
func TestNestedCallsStayDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 1<<14)
	for i := range x {
		x[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
	}
	const seg = 256
	sums := func() []uint64 {
		out := make([]float64, len(x)/seg)
		For(len(out), 1, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				xs := x[c*seg : (c+1)*seg]
				out[c] = Sum(len(xs), 16, func(l, h int) float64 {
					s := 0.0
					for i := l; i < h; i++ {
						s += xs[i]
					}
					return s
				})
			}
		})
		bits := make([]uint64, len(out))
		for i, v := range out {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}
	var ref []uint64
	withGOMAXPROCS(t, 1, func() { ref = sums() })
	for _, procs := range procsUnderTest {
		withGOMAXPROCS(t, procs, func() {
			for rep := 0; rep < 5; rep++ {
				for c, b := range sums() {
					if b != ref[c] {
						t.Fatalf("GOMAXPROCS=%d rep %d: segment %d sums to %016x, want %016x", procs, rep, c, b, ref[c])
					}
				}
			}
		})
	}
}

func TestSumSingleChunkEqualsSerial(t *testing.T) {
	x := []float64{1e30, 1, -1e30, math.Pi}
	got := Sum(len(x), 1024, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		return s
	})
	want := 0.0
	for _, v := range x {
		want += v
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("single-chunk Sum %v != serial %v", got, want)
	}
}

func TestEmptyAndTinySpaces(t *testing.T) {
	calls := 0
	For(0, 16, func(lo, hi int) { calls++ })
	if calls != 0 {
		t.Fatal("For over empty space must not invoke body")
	}
	if s := Sum(0, 16, func(lo, hi int) float64 { return 1 }); s != 0 {
		t.Fatalf("Sum over empty space = %v, want 0", s)
	}
	For(1, 16, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatalf("tiny For chunk [%d,%d)", lo, hi)
		}
		calls++
	})
	if calls != 1 {
		t.Fatal("For over [0,1) must invoke body exactly once")
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, procs := range procsUnderTest {
		withGOMAXPROCS(t, procs, func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("GOMAXPROCS=%d: panic did not propagate", procs)
				}
				if msg, ok := r.(string); !ok || msg != "kaboom" {
					t.Fatalf("GOMAXPROCS=%d: unexpected panic value %v", procs, r)
				}
			}()
			// Trigger on the chunk covering index 4096, whatever the
			// subdivision: For may pass the whole range in one call.
			For(10_000, 8, func(lo, hi int) {
				if lo <= 4096 && 4096 < hi {
					panic("kaboom")
				}
			})
		})
	}
}

// TestParallelStress drives many concurrent chunks with shared read-only
// input and disjoint writes; primarily a race-detector target for `go test
// -race ./internal/kern`.
func TestParallelStress(t *testing.T) {
	const n = 1 << 16
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	withGOMAXPROCS(t, 8, func() {
		for rep := 0; rep < 20; rep++ {
			out := make([]float64, n)
			For(n, 512, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = in[i] * 2
				}
			})
			total := Sum(n, 512, func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += out[i]
				}
				return s
			})
			want := float64(n) * float64(n-1)
			if total != want {
				t.Fatalf("rep %d: total %v, want %v", rep, total, want)
			}
		}
	})
}

func BenchmarkForOverhead(b *testing.B) {
	x := make([]float64, 1<<16)
	y := make([]float64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(len(x), 2048, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				y[j] = 2 * x[j]
			}
		})
	}
}

func BenchmarkSumOverhead(b *testing.B) {
	x := make([]float64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sum(len(x), 2048, func(lo, hi int) float64 {
			s := 0.0
			for j := lo; j < hi; j++ {
				s += x[j]
			}
			return s
		})
	}
}
