package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/stats"
)

// bruteMaxRun computes the largest multiplicity of any non-dummy key.
func bruteMaxRun(keys []int64) int64 {
	counts := map[int64]int64{}
	var m int64
	for _, k := range keys {
		if k < 0 {
			continue
		}
		counts[k]++
		if counts[k] > m {
			m = counts[k]
		}
	}
	return m
}

func TestBuildSummaryBasics(t *testing.T) {
	s := buildSummary([]int64{1, 1, 2, 2, 2, 5}, -1)
	if s.size != 6 || s.headKey != 1 || s.headLen != 2 {
		t.Fatalf("head wrong: %+v", s)
	}
	if s.tailKey != 5 || s.tailLen != 1 || s.maxRun != 3 {
		t.Fatalf("tail/max wrong: %+v", s)
	}
}

func TestBuildSummaryAllDummies(t *testing.T) {
	s := buildSummary([]int64{-1, -1, -1}, -1)
	if s.size != 3 || s.headKey != -1 || s.headLen != 0 || s.maxRun != 0 || s.tailKey != -1 {
		t.Fatalf("dummy summary wrong: %+v", s)
	}
}

func TestBuildSummaryEmpty(t *testing.T) {
	s := buildSummary(nil, -1)
	if s.size != 0 || s.maxRun != 0 {
		t.Fatalf("empty summary wrong: %+v", s)
	}
}

func TestBuildSummaryTrailingDummies(t *testing.T) {
	s := buildSummary([]int64{3, 3, -1, -1}, -1)
	if s.headKey != 3 || s.headLen != 2 || s.maxRun != 2 {
		t.Fatalf("head wrong: %+v", s)
	}
	if s.tailKey != -1 || s.tailLen != 0 {
		t.Fatalf("trailing dummies counted: %+v", s)
	}
}

func TestMergeSummaryJoinsRuns(t *testing.T) {
	a := buildSummary([]int64{1, 2, 2}, -1)
	b := buildSummary([]int64{2, 2, 3}, -1)
	c := mergeSummary(a, b)
	if c.maxRun != 4 {
		t.Fatalf("joined run not counted: %+v", c)
	}
	if c.headKey != 1 || c.headLen != 1 || c.tailKey != 3 || c.tailLen != 1 {
		t.Fatalf("head/tail wrong: %+v", c)
	}
}

func TestMergeSummaryWholeBlockRuns(t *testing.T) {
	a := buildSummary([]int64{7, 7, 7}, -1)
	b := buildSummary([]int64{7, 7}, -1)
	c := mergeSummary(a, b)
	if c.maxRun != 5 || c.headLen != 5 || c.tailLen != 5 {
		t.Fatalf("full-block merge wrong: %+v", c)
	}
	d := mergeSummary(c, buildSummary([]int64{7, 9}, -1))
	if d.maxRun != 6 || d.headLen != 6 || d.tailKey != 9 {
		t.Fatalf("chained merge wrong: %+v", d)
	}
}

// TestSummaryReduceProperty: for random sorted sequences (with dummies
// at the end, as the router produces), splitting into blocks and
// tree-merging the summaries must recover the exact maximum key
// multiplicity, for every block size and tree shape.
func TestSummaryReduceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	check := func(seed uint32, blocksRaw, sizeRaw, rangeRaw uint8) bool {
		rng := stats.NewRNG(uint64(seed))
		blocks := int(blocksRaw%8) + 1
		size := int(sizeRaw%6) + 1
		keyRange := int64(rangeRaw%10) + 1
		n := blocks * size
		keys := make([]int64, 0, n)
		real := rng.Intn(n + 1)
		for i := 0; i < real; i++ {
			keys = append(keys, int64(rng.Uint64n(uint64(keyRange))))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for len(keys) < n {
			keys = append(keys, -1) // dummies at the end
		}
		// Per-block summaries.
		sums := make([]runSummary, blocks)
		for b := 0; b < blocks; b++ {
			sums[b] = buildSummary(keys[b*size:(b+1)*size], -1)
		}
		// Left-to-right tree merge exactly as the recursive-halving
		// protocol does.
		for k := 1; k < blocks; k <<= 1 {
			for i := 0; i+k < blocks; i += 2 * k {
				sums[i] = mergeSummary(sums[i], sums[i+k])
			}
		}
		return sums[0].maxRun == bruteMaxRun(keys)
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCompareItemsTotalOrder(t *testing.T) {
	// Antisymmetry, reflexive equality and key-major ordering on a few
	// crafted cases.
	a := mkItem(1, 0, 0, 0, 0)
	b := mkItem(2, 0, 0, 0, 0)
	if compareItems(&a, &b) >= 0 || compareItems(&b, &a) <= 0 {
		t.Fatal("Dst ordering broken")
	}
	c := mkItem(1, 3, 0, 0, 0)
	if compareItems(&a, &c) >= 0 || compareItems(&c, &a) <= 0 {
		t.Fatal("Src tiebreak broken")
	}
	d := mkItem(1, 0, 0, 0, -1)
	if compareItems(&d, &a) >= 0 || compareItems(&a, &d) <= 0 {
		t.Fatal("Aux tiebreak broken")
	}
	a2 := a
	if compareItems(&a, &a) != 0 || compareItems(&a, &a2) != 0 {
		t.Fatal("equal values must compare equal")
	}
}

func mkItem(dst, src int, tag int32, payload, aux int64) (m bsp.Message) {
	m.Dst, m.Src, m.Tag, m.Payload, m.Aux = dst, src, tag, payload, aux
	return m
}
