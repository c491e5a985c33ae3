// Package stats provides the deterministic pseudo-random number
// generation, tail-bound, and data-fitting utilities shared by the
// simulators and the benchmark harness.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible from a single seed. RNG is a Xoshiro256**
// generator seeded through SplitMix64, following the recommendation of
// the xoshiro authors; independent streams come from distinct seeds.
package stats

import "math/bits"

// RNG is a deterministic pseudo-random number generator.
// The zero value is not valid; use NewRNG.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, per the xoshiro reference implementation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator deterministically derived from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes the generator in place to the state NewRNG
// would produce, so hot paths can reuse one RNG across runs without
// allocating.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// Guard against the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// xoshiro is one xoshiro256** step: the output of state (s0, s1, s2,
// s3) and the state after it. The state travels as scalars so a caller
// drawing in a loop can keep it in registers.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Reservoir returns the 0-based index of the last k in 1..n for which
// Intn(k) returns 0: the pick of a one-element reservoir sample over n
// items offered in order. It consumes exactly the Uint64 stream that
// those n Intn calls would, Lemire rejection redraws included, so it
// can replace such a loop without changing any later draw. It panics
// if n <= 0.
//
//hot:path per-acceptance callee of logp's DeliverRandom slot choice: hotness does not propagate across packages
func (r *RNG) Reservoir(n int) int {
	if n <= 0 {
		panic("stats: Reservoir called with non-positive n")
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	chosen := 0
	for k := uint64(1); k <= uint64(n); k++ {
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		hi, lo := bits.Mul64(x, k)
		if lo < k {
			thresh := -k % k
			for lo < thresh {
				x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, k)
			}
		}
		if hi == 0 {
			chosen = int(k - 1)
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return chosen
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm32Into fills out[:n] with a uniformly random permutation of
// [0, n): a Fisher-Yates shuffle of the identity, drawing Intn(n), ...,
// Intn(2) in that order. Callers redraw permutations into a retained
// buffer instead of allocating one per draw.
func (r *RNG) Perm32Into(out []int32, n int) {
	p := out[:n]
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}
