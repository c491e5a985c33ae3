package relation

import "repro/internal/stats"

// RandomRegularStream is the implicit form of RandomRegular: the
// superimposition of h independent random permutations, held as the h
// permutations themselves (4 bytes per message instead of a 16-byte
// Pair plus decomposition scratch). Slot k of every source is
// permutation k, so the stream is pre-decomposed into h permutation
// classes.
type RandomRegularStream struct {
	p, h int
	// perms holds the h permutations in one flat backing, permutation
	// k occupying [k*p, (k+1)*p): one allocation regardless of h, and
	// Reset rewrites it in place for the next seed.
	perms []int32
}

// Reset redraws the stream in place: the same h permutations
// RandomRegular(rng, p, h) would draw, written into the retained
// backing (grown only when p*h exceeds every prior shape). Benchmark
// reps regenerate a p = 10^6 workload for each seed; Reset lets them do
// so with zero steady-state allocation. The zero RandomRegularStream is
// ready for Reset.
func (s *RandomRegularStream) Reset(rng *stats.RNG, p, h int) {
	s.p, s.h = p, h
	need := p * h
	if cap(s.perms) < need {
		s.perms = make([]int32, need)
	}
	s.perms = s.perms[:need]
	for k := 0; k < h; k++ {
		rng.Perm32Into(s.perms[k*p:(k+1)*p], p)
	}
}

// P returns the processor count.
func (s *RandomRegularStream) P() int { return s.p }

// H returns the relation degree: every processor sends and receives h.
func (s *RandomRegularStream) H() int { return s.h }

// Pair returns the k-th pair of source src, 0 <= k < H(): slot k of
// every source is permutation k. It is the per-message generator the
// scale scripts call once per send; it must stay O(1) and
// allocation-free.
//
//hot:path per-send callee of the scale scripts: hotness does not propagate across packages
func (s *RandomRegularStream) Pair(src, k int) Pair {
	return Pair{Src: src, Dst: int(s.perms[k*s.p+src])}
}
