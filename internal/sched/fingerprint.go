package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/rng"
)

// Fingerprint is a canonical 128-bit content hash of an instance: a stable
// identity for (m, n, q, prec) that survives serialization round-trips.
// It is what makes cross-request caching content-addressed — two clients
// POSTing byte-for-byte different JSON that decodes to the same instance
// coalesce onto one cache entry. The LP1 rounding memo (rounding.Cache)
// keys on it too, so its entries outlive any one decoded instance and
// never pin one.
//
// The hash is not cryptographic: it defends against accidental collisions
// (2⁻¹²⁸ random, verified empirically by the distinctness tests), not
// against adversarial instance construction.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether f is the zero fingerprint (no real instance
// hashes to it in practice; the zero value means "not computed").
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// String renders the fingerprint as 32 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// fpVersion is mixed in first so any future change to the hashed byte
// layout changes every fingerprint instead of silently aliasing old ones.
const fpVersion = 0x5355_5546_5031 // "SUUFP1"

// fpEdgeMarker separates the q matrix from the edge list in the absorbed
// stream, so an instance with edges can never alias an edge-free instance
// whose q bits happen to continue the same way.
const fpEdgeMarker = 0xed6e_5e70_a1a7_0001

// fpState is a pair of independently-mixed 64-bit absorb streams; the two
// lanes use different multiplicative constants and injections so a word
// that collides one lane leaves the other distinct.
type fpState struct {
	a, b uint64
}

func (s *fpState) word(w uint64) {
	s.a = rng.Mix64((s.a ^ w) * 0x9e3779b97f4a7c15)
	s.b = rng.Mix64((s.b + (w<<23 | w>>41)) * 0xc2b2ae3d27d4eb4f)
}

// FingerprintInstance computes the canonical fingerprint of ins. The hash
// covers exactly the instance content: m, n, every q_ij (IEEE-754 bits, in
// row-major order), and the precedence edge set in sorted order — so the
// result is independent of edge insertion order and of any serialization
// detail, and two instances compare equal iff they describe the same SUU
// problem (up to q bit-equality; JSON round-trips floats exactly).
func FingerprintInstance(ins *model.Instance) Fingerprint {
	st := fpState{a: fpVersion, b: ^uint64(fpVersion)}
	st.word(uint64(ins.M))
	st.word(uint64(ins.N))
	for i := range ins.Q {
		for _, q := range ins.Q[i] {
			st.word(math.Float64bits(q))
		}
	}
	// A nil Prec and a non-nil zero-edge Prec describe the same problem
	// (both classify independent), so the edge section is hashed only
	// when edges exist — otherwise the two forms would never share a
	// cache entry.
	if ins.Prec != nil && ins.Prec.Edges() > 0 {
		edges := make([][2]int, 0, ins.Prec.Edges())
		for u := 0; u < ins.Prec.N(); u++ {
			for _, v := range ins.Prec.Succs(u) {
				edges = append(edges, [2]int{u, v})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
		st.word(fpEdgeMarker)
		for _, e := range edges {
			st.word(uint64(uint32(e[0]))<<32 | uint64(uint32(e[1])))
		}
	}
	return Fingerprint{
		Hi: rng.Mix64(st.a ^ (st.b<<32 | st.b>>32)),
		Lo: rng.Mix64((st.b ^ st.a) + 0x9e3779b97f4a7c15),
	}
}
