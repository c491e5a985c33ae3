package relation

import (
	"testing"

	"repro/internal/stats"
)

func TestRandomRegularStream(t *testing.T) {
	// Reset draws RandomRegular's permutations: slot k of source src is
	// RandomRegular's pair k*p+src.
	const p = 10
	var s RandomRegularStream
	for _, h := range []int{1, 3, 8} {
		want := RandomRegular(stats.NewRNG(5), p, h)
		s.Reset(stats.NewRNG(5), p, h)
		if s.P() != p || s.H() != want.H() {
			t.Fatalf("h=%d: P, H = %d, %d, want %d, %d", h, s.P(), s.H(), p, want.H())
		}
		for k := 0; k < h; k++ {
			for src := 0; src < p; src++ {
				if got := s.Pair(src, k); got != want.Pairs[k*p+src] {
					t.Fatalf("h=%d: Pair(%d, %d) = %+v, want %+v", h, src, k, got, want.Pairs[k*p+src])
				}
			}
		}
	}
}

// TestRandomRegularStreamPreDecomposed pins the documented class
// guarantee: slot k across all sources is a permutation.
func TestRandomRegularStreamPreDecomposed(t *testing.T) {
	var s RandomRegularStream
	s.Reset(stats.NewRNG(11), 17, 4)
	for k := 0; k < s.H(); k++ {
		seen := make([]bool, s.P())
		for src := 0; src < s.P(); src++ {
			d := s.Pair(src, k).Dst
			if seen[d] {
				t.Fatalf("class %d repeats destination %d", k, d)
			}
			seen[d] = true
		}
	}
}

// TestStreamQueriesDoNotAllocate is the allocation-regression guard on
// the streaming generator: every per-pair query must be free of
// allocations, or a million-processor routing loop allocates millions
// of times per relation.
func TestStreamQueriesDoNotAllocate(t *testing.T) {
	var s RandomRegularStream
	s.Reset(stats.NewRNG(3), 64, 4)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		for src := 0; src < s.P(); src++ {
			for k := 0; k < s.H(); k++ {
				sink += s.Pair(src, k).Dst
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per sweep, want 0", allocs)
	}
	_ = sink
}

func TestGroupingMatchesBySource(t *testing.T) {
	rng := stats.NewRNG(21)
	var g Grouping
	for _, r := range []Relation{
		{P: 3, Pairs: []Pair{{0, 1}, {2, 0}, {0, 2}}},
		RandomIrregular(rng, 9, 3),
		HotSpot(12, 6, 4),
		{P: 5},
	} {
		g.Group(r)
		by := r.BySource()
		for i := 0; i < r.P; i++ {
			got := g.Source(i)
			if g.FanOut(i) != len(by[i]) || len(got) != len(by[i]) {
				t.Fatalf("source %d: %d pairs, want %d", i, len(got), len(by[i]))
			}
			for j := range got {
				if got[j] != by[i][j] {
					t.Fatalf("source %d pair %d: %+v, want %+v", i, j, got[j], by[i][j])
				}
			}
		}
	}
}

func TestGroupingReuseDoesNotAllocate(t *testing.T) {
	rng := stats.NewRNG(22)
	r := RandomIrregular(rng, 32, 4)
	var g Grouping
	g.Group(r)
	allocs := testing.AllocsPerRun(50, func() { g.Group(r) })
	if allocs != 0 {
		t.Errorf("Grouping.Group reallocated on reuse: %v allocs", allocs)
	}
}

// TestGeneratorCapacities pins the exact pre-sizing of the
// materializing generator: the Pairs backing is sized by the count the
// generator actually emits, with no append-growth slack.
func TestGeneratorCapacities(t *testing.T) {
	r := RandomRegular(stats.NewRNG(33), 37, 5)
	if len(r.Pairs) != 37*5 || cap(r.Pairs) != len(r.Pairs) {
		t.Errorf("RandomRegular: len %d cap %d, want both %d", len(r.Pairs), cap(r.Pairs), 37*5)
	}
}
