// Package rng provides the simulator's random source: SplitMix64, a tiny
// (one uint64 of state) generator with a 2⁶⁴ period and excellent
// statistical quality for Monte Carlo use. Its two properties matter here:
//
//   - Reseeding is O(1) state assignment, so a pooled World can be rewound
//     to "trial i" by writing a single word — no per-trial allocation. The
//     standard library's rand.NewSource allocates and warms a ~4.9 KB
//     lagged-Fibonacci table per source, which dominated the simulator's
//     per-trial cost before this package existed.
//   - Every seed gives an independent-looking stream (the output function
//     is a strong 64→64 bit mixer), so seeding trial i with seed+i yields
//     streams that are deterministic per trial and independent of how
//     trials are spread over workers.
//
// SplitMix64 implements math/rand.Source64, so it can back a *rand.Rand
// for code that wants the full standard-library API (the World hands such
// a wrapper to policies via Rng()).
package rng

import "math/rand"

// SplitMix64 is Steele, Lea & Flood's SplitMix64 generator (the stream
// splitter of Java's SplittableRandom, also used to seed xoshiro).
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

var _ rand.Source64 = (*SplitMix64)(nil)

// New returns a generator seeded with seed.
func New(seed int64) *SplitMix64 {
	return &SplitMix64{state: uint64(seed)}
}

// Seed resets the generator to the stream identified by seed. It is O(1)
// and allocation-free, which is what makes per-trial reseeding of pooled
// simulation state cheap. Implements rand.Source.
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next value of the stream. Implements rand.Source64.
func (s *SplitMix64) Uint64() uint64 {
	s.state += Golden
	return Mix64(s.state)
}

// Golden is SplitMix64's Weyl-sequence increment, 2⁶⁴/φ rounded to odd.
// Counter-mode callers draw the i-th value of a stream as Mix64(seed +
// i·Golden).
const Golden = 0x9e3779b97f4a7c15

// Mix64 is the SplitMix64 finalizer: a bijective 64→64 bit mixer with
// full avalanche. It is the one copy every package hashes and draws
// through — store keys on disk, fingerprint golden files, trace IDs and
// recorded zipf sequences depend on its exact output.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative 63-bit value. Implements rand.Source.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1) using the top 53 bits, the
// conventional full-precision mapping. Note that a *rand.Rand wrapping
// this source does NOT call it — rand.Rand derives Float64 from Int63 —
// so the simulator's draws use the standard library's mapping; this
// method serves callers using the source directly.
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1.0p-53
}
