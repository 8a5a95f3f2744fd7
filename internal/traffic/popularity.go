package traffic

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/rng"
)

// Popularity draws which catalog entry each arrival requests. Next is
// safe for concurrent use; given a fixed draw order the sequence is
// deterministic in the seed.
type Popularity interface {
	// Next returns an index in [0, catalog size).
	Next() int
	// String names the distribution, parseable by ParsePopularity.
	String() string
}

// RoundRobin cycles the catalog 0,1,…,n−1,0,… — every entry equally hot,
// perfectly periodic. This is the harness's historical behavior and the
// default.
type RoundRobin struct {
	n   int
	ctr atomic.Uint64
}

// NewRoundRobin cycles a catalog of n entries.
func NewRoundRobin(n int) *RoundRobin { return &RoundRobin{n: n} }

// Next implements Popularity.
func (r *RoundRobin) Next() int { return int((r.ctr.Add(1) - 1) % uint64(r.n)) }

func (r *RoundRobin) String() string { return "roundrobin" }

// Zipfian draws rank k ∈ {1..n} with probability k^−s / H_{n,s} and
// returns catalog index k−1, so entry 0 is the hottest. s = 0 is uniform;
// s ≈ 1 is the classic web/cache skew; s > 1 concentrates most arrivals
// on a handful of entries. Sampling is inverse-CDF over a precomputed
// cumulative table (the catalog is small), and the random stream is a
// counter-mode SplitMix64 so draws are lock-free and seed-deterministic.
type Zipfian struct {
	s    float64
	cum  []float64 // cum[k] = P(rank ≤ k+1); cum[n-1] == 1
	seed uint64
	ctr  atomic.Uint64
}

// NewZipfian builds the distribution over a catalog of n entries with
// exponent s ≥ 0.
func NewZipfian(s float64, n int, seed int64) (*Zipfian, error) {
	if n < 1 {
		return nil, fmt.Errorf("traffic: zipf catalog size %d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("traffic: zipf exponent %g (want s ≥ 0)", s)
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	cum[n-1] = 1 // pin the tail against rounding
	z := &Zipfian{s: s, cum: cum, seed: uint64(seed)}
	if z.seed == 0 {
		z.seed = 1
	}
	return z, nil
}

// PMF returns the analytic probability of each catalog index — the
// reference the χ² property test checks empirical frequencies against.
func (z *Zipfian) PMF() []float64 {
	p := make([]float64, len(z.cum))
	prev := 0.0
	for k, c := range z.cum {
		p[k] = c - prev
		prev = c
	}
	return p
}

// Next implements Popularity.
func (z *Zipfian) Next() int {
	// Counter-mode SplitMix64: each draw mixes seed + i·φ, so concurrent
	// callers never contend and a single-threaded dispatcher replays the
	// identical sequence for a seed.
	x := rng.Mix64(z.seed + z.ctr.Add(1)*rng.Golden)
	u := float64(x>>11) / (1 << 53)
	return sort.SearchFloat64s(z.cum, u)
}

func (z *Zipfian) String() string { return fmt.Sprintf("zipf:%g", z.s) }

// ParsePopularity builds a popularity distribution over a catalog of n
// entries from its flag spelling:
//
//	roundrobin          (or "") — cycle the catalog in order
//	zipf:<s>            e.g. zipf:0.9; zipf:0 is uniform-random
func ParsePopularity(spec string, n int, seed int64) (Popularity, error) {
	if n < 1 {
		return nil, fmt.Errorf("traffic: popularity needs a catalog, got %d entries", n)
	}
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "", "roundrobin":
		if len(parts) > 1 {
			return nil, fmt.Errorf("traffic: popularity %q: roundrobin takes no parameters", spec)
		}
		return NewRoundRobin(n), nil
	case "zipf", "zipfian":
		if len(parts) != 2 {
			return nil, fmt.Errorf("traffic: popularity %q: want zipf:s", spec)
		}
		s, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: popularity %q: bad exponent", spec)
		}
		return NewZipfian(s, n, seed)
	default:
		return nil, fmt.Errorf("traffic: unknown popularity %q (want roundrobin or zipf:s)", spec)
	}
}
