package detrand

import (
	"math/rand"
	"testing"
)

func TestLazyAvailable(t *testing.T) {
	if !LazyAvailable() {
		t.Fatal("lazy engine failed its stdlib equivalence check on this runtime")
	}
}

// TestLazySourceMatchesStdlib drives the raw source well past the
// lagged-Fibonacci feedback boundary (draw 273) and the full period of
// the state vector for a spread of seeds, including the simulator's
// actual per-operation seed shape.
func TestLazySourceMatchesStdlib(t *testing.T) {
	seeds := []int64{1, 2, 0, -1, -12345, 89482311, int32max - 1, int32max, int32max + 1, 2011*1_000_003 + 42}
	for _, seed := range seeds {
		ref := rand.NewSource(seed)
		s := &lazySource{}
		s.Seed(seed)
		for i := 0; i < 3*rngLen; i++ {
			got, want := s.Int63(), ref.Int63()
			if got != want {
				t.Fatalf("seed %d draw %d: got %d want %d", seed, i, got, want)
			}
		}
	}
}

// forceEager runs fn with the lazy engine marked unavailable, as on a
// runtime whose generator layout failed the startup check, so Get takes
// its eager stdlib fallback.
func forceEager(fn func()) {
	setupOnce.Do(setup)
	saved := lazyOK
	lazyOK = false
	defer func() { lazyOK = saved }()
	fn()
}

// TestPooledRandMatchesStdlib checks the full Rand API surface the
// simulator uses (NormFloat64 goes through Uint32/Float64 internally)
// for the lazy engine and the eager fallback, including generator reuse
// across seeds.
func TestPooledRandMatchesStdlib(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		get := Get
		if !lazy {
			get = func(seed int64) (r *Rand) {
				forceEager(func() { r = Get(seed) })
				return r
			}
		}
		for trial := 0; trial < 3; trial++ { // reuse pooled state across trials
			for _, seed := range []int64{7, -7, 2011*1_000_003 + 1, 1 << 40} {
				ref := rand.New(rand.NewSource(seed))
				r := get(seed)
				for i := 0; i < 200; i++ {
					if got, want := r.NormFloat64(), ref.NormFloat64(); got != want {
						t.Fatalf("lazy=%v seed %d NormFloat64 draw %d: got %v want %v", lazy, seed, i, got, want)
					}
				}
				for i := 0; i < 700; i++ {
					if got, want := r.Int63(), ref.Int63(); got != want {
						t.Fatalf("lazy=%v seed %d Int63 draw %d: got %v want %v", lazy, seed, i, got, want)
					}
				}
				Put(r)
			}
		}
	}
}

func TestMulmod(t *testing.T) {
	// Against the reference Schrage implementation from math/rand.
	seedrand := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi := x / q
		lo := x % q
		x = a*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	x := int32(1)
	u := uint64(1)
	for i := 0; i < 10000; i++ {
		x = seedrand(x)
		u = mulmod(u, lcgA)
		if uint64(x) != u {
			t.Fatalf("step %d: schrage %d mulmod %d", i, x, u)
		}
	}
}

func BenchmarkSeedDrawEager(b *testing.B) {
	forceEager(func() {
		for i := 0; i < b.N; i++ {
			r := Get(int64(i))
			r.NormFloat64()
			Put(r)
		}
	})
}

func BenchmarkSeedDrawLazy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Get(int64(i))
		r.NormFloat64()
		Put(r)
	}
}

func BenchmarkSeedDrawStdlib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		r.NormFloat64()
	}
}
