package rng

import (
	"math"
	"math/rand"
	"testing"
)

// TestDeterminism: the same seed must reproduce the same stream, and Seed
// must rewind an already-used generator.
func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	first := New(7).Uint64()
	a.Seed(7)
	if got := a.Uint64(); got != first {
		t.Fatalf("Seed(7) then Uint64 = %d, fresh New(7) gives %d", got, first)
	}
}

// TestSeedsIndependent: nearby seeds (the seed+i trial scheme) must not
// produce correlated streams. A weak mixer would show near-identical
// first outputs for adjacent seeds.
func TestSeedsIndependent(t *testing.T) {
	seen := make(map[uint64]int64)
	for seed := int64(0); seed < 10_000; seed++ {
		v := New(seed).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("seeds %d and %d share first output %d", prev, seed, v)
		}
		seen[v] = seed
	}
}

// TestFloat64Range: Float64 stays in [0,1) and has a plausible mean.
func TestFloat64Range(t *testing.T) {
	s := New(1)
	const n = 200_000
	sum := 0.0
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d draws = %v, want ≈0.5", n, mean)
	}
}

// TestBitBalance: each output bit should be set about half the time.
func TestBitBalance(t *testing.T) {
	s := New(3)
	const n = 100_000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.5) > 0.01 {
			t.Fatalf("bit %d set %.3f of the time, want ≈0.5", b, frac)
		}
	}
}

// TestBacksRandRand: SplitMix64 must work as a rand.Source64 behind the
// standard *rand.Rand, deterministically per seed.
func TestBacksRandRand(t *testing.T) {
	r1 := rand.New(New(11))
	r2 := rand.New(New(11))
	for i := 0; i < 100; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatalf("rand.Rand over SplitMix64 not deterministic at draw %d", i)
		}
	}
	r3 := rand.New(New(12))
	if got, other := rand.New(New(11)).Int63n(1<<40), r3.Int63n(1<<40); got == other {
		t.Log("seeds 11 and 12 coincided on one draw (possible but unlikely)")
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64ViaRand(b *testing.B) {
	r := rand.New(New(1))
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// TestMix64KnownAnswers pins the finalizer's exact output: persisted
// store keys, fingerprint goldens, trace IDs and recorded zipf sequences
// all depend on it. The last vector doubles as the reference first
// output of a SplitMix64 stream seeded with 0.
func TestMix64KnownAnswers(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0x0, 0x0000000000000000},
		{0x1, 0x5692161d100b05e5},
		{0xdeadbeefcafebabe, 0x7ad6664f09ffe52c},
		{0xffffffffffffffff, 0xb4d055fcf2cbbd7b},
		{Golden, 0xe220a8397b1dcdaf},
	} {
		if got := Mix64(tc.in); got != tc.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
	if got := New(0).Uint64(); got != 0xe220a8397b1dcdaf {
		t.Errorf("New(0).Uint64() = %#x, want 0xe220a8397b1dcdaf", got)
	}
}
