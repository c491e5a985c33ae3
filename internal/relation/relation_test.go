package relation

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestDegreesAndH(t *testing.T) {
	r := Relation{P: 4, Pairs: []Pair{{0, 1}, {0, 2}, {3, 1}, {2, 1}}}
	fanOut, fanIn := r.Degrees()
	if fanOut[0] != 2 || fanOut[3] != 1 || fanOut[1] != 0 {
		t.Fatalf("fanOut = %v", fanOut)
	}
	if fanIn[1] != 3 || fanIn[2] != 1 || fanIn[0] != 0 {
		t.Fatalf("fanIn = %v", fanIn)
	}
	if r.H() != 3 {
		t.Fatalf("H = %d, want 3 (receiver 1)", r.H())
	}
}

func TestEmptyRelation(t *testing.T) {
	r := Relation{P: 3}
	if r.H() != 0 {
		t.Fatalf("empty H = %d", r.H())
	}
	if got := Decompose(r); got != nil {
		t.Fatalf("Decompose(empty) = %v, want nil", got)
	}
}

func TestRandomRegularIsRegular(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, h := range []int{1, 3, 8} {
		r := RandomRegular(rng, 10, h)
		fanOut, fanIn := r.Degrees()
		for i := 0; i < 10; i++ {
			if fanOut[i] != h || fanIn[i] != h {
				t.Fatalf("h=%d: degrees not regular: out=%v in=%v", h, fanOut, fanIn)
			}
		}
		if r.H() != h {
			t.Fatalf("H = %d, want %d", r.H(), h)
		}
	}
}

func TestRandomIrregularOutDegree(t *testing.T) {
	rng := stats.NewRNG(6)
	r := RandomIrregular(rng, 12, 4)
	fanOut, _ := r.Degrees()
	for i, d := range fanOut {
		if d != 4 {
			t.Fatalf("processor %d out-degree %d, want 4", i, d)
		}
	}
}

func TestHotSpot(t *testing.T) {
	r := HotSpot(8, 5, 3)
	if len(r.Pairs) != 5 {
		t.Fatalf("pairs = %d", len(r.Pairs))
	}
	srcs := map[int]bool{}
	for _, pr := range r.Pairs {
		if pr.Dst != 3 {
			t.Fatalf("pair %+v not aimed at hot spot", pr)
		}
		if pr.Src == 3 || srcs[pr.Src] {
			t.Fatalf("invalid or duplicate source %d", pr.Src)
		}
		srcs[pr.Src] = true
	}
	// h >= p is clamped to p-1 distinct sources.
	if got := len(HotSpot(4, 99, 0).Pairs); got != 3 {
		t.Fatalf("clamped hot spot = %d pairs, want 3", got)
	}
}

func TestAllToAll(t *testing.T) {
	r := AllToAll(6)
	if len(r.Pairs) != 30 || r.H() != 5 {
		t.Fatalf("pairs=%d H=%d", len(r.Pairs), r.H())
	}
}

func TestBySource(t *testing.T) {
	r := Relation{P: 3, Pairs: []Pair{{0, 1}, {2, 0}, {0, 2}}}
	by := r.BySource()
	if len(by[0]) != 2 || len(by[1]) != 0 || len(by[2]) != 1 {
		t.Fatalf("BySource = %v", by)
	}
}

// checkDecomposition verifies the three Hall/König properties:
// exactly H classes, each class a partial permutation, union equal to
// the original multiset.
func checkDecomposition(t *testing.T, r Relation) {
	t.Helper()
	classes := Decompose(r)
	h := r.H()
	if len(classes) != h {
		t.Fatalf("got %d classes, want H = %d", len(classes), h)
	}
	counts := map[Pair]int{}
	for _, pr := range r.Pairs {
		counts[pr]++
	}
	for ci, class := range classes {
		srcs := map[int]bool{}
		dsts := map[int]bool{}
		for _, pr := range class {
			if srcs[pr.Src] {
				t.Fatalf("class %d repeats source %d", ci, pr.Src)
			}
			if dsts[pr.Dst] {
				t.Fatalf("class %d repeats destination %d", ci, pr.Dst)
			}
			srcs[pr.Src] = true
			dsts[pr.Dst] = true
			counts[pr]--
			if counts[pr] < 0 {
				t.Fatalf("pair %+v appears more often in classes than in relation", pr)
			}
		}
	}
	for pr, c := range counts {
		if c != 0 {
			t.Fatalf("pair %+v missing from decomposition (%d left)", pr, c)
		}
	}
}

func TestDecomposeRegular(t *testing.T) {
	rng := stats.NewRNG(31)
	for _, h := range []int{1, 2, 3, 5, 8} {
		checkDecomposition(t, RandomRegular(rng, 9, h))
	}
}

func TestDecomposeIrregular(t *testing.T) {
	rng := stats.NewRNG(32)
	for _, h := range []int{1, 2, 4, 7} {
		checkDecomposition(t, RandomIrregular(rng, 11, h))
	}
}

func TestDecomposeHotSpot(t *testing.T) {
	checkDecomposition(t, HotSpot(16, 10, 2))
}

func TestDecomposeAllToAll(t *testing.T) {
	checkDecomposition(t, AllToAll(8))
}

func TestDecomposeSingleEdge(t *testing.T) {
	checkDecomposition(t, Relation{P: 4, Pairs: []Pair{{2, 3}}})
}

func TestDecomposeParallelEdges(t *testing.T) {
	// The same (src,dst) pair three times must land in three
	// different classes.
	r := Relation{P: 2, Pairs: []Pair{{0, 1}, {0, 1}, {0, 1}}}
	checkDecomposition(t, r)
}

func TestDecomposeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	check := func(seed uint32, pRaw, hRaw, mode uint8) bool {
		rng := stats.NewRNG(uint64(seed))
		p := int(pRaw%14) + 2
		h := int(hRaw%9) + 1
		var r Relation
		switch mode % 3 {
		case 0:
			r = RandomRegular(rng, p, h)
		case 1:
			r = RandomIrregular(rng, p, h)
		case 2:
			r = HotSpot(p, h, int(seed)%p)
		}
		classes := Decompose(r)
		if len(classes) != r.H() {
			return false
		}
		total := 0
		for _, class := range classes {
			srcs := map[int]bool{}
			dsts := map[int]bool{}
			for _, pr := range class {
				if srcs[pr.Src] || dsts[pr.Dst] {
					return false
				}
				srcs[pr.Src] = true
				dsts[pr.Dst] = true
				total++
			}
		}
		return total == len(r.Pairs)
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
