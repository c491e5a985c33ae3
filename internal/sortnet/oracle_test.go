package sortnet

import (
	"fmt"
	"sort"
)

// Sequential reference executors of the oblivious networks: the tests
// check the shipped schedules and index maps by running them here.

// MergeSplit merges two sorted slices of equal length r and returns
// the r smallest and r largest elements, both sorted. Inputs are not
// modified.
func MergeSplit(a, b []int64) (lo, hi []int64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("sortnet: MergeSplit length mismatch %d vs %d", len(a), len(b)))
	}
	r := len(a)
	lo = make([]int64, 0, r)
	hi = make([]int64, 0, r)
	i, j := 0, 0
	for len(lo) < r {
		if j >= r || (i < r && a[i] <= b[j]) {
			lo = append(lo, a[i])
			i++
		} else {
			lo = append(lo, b[j])
			j++
		}
	}
	for len(hi) < r {
		if j >= r || (i < r && a[i] <= b[j]) {
			hi = append(hi, a[i])
			i++
		} else {
			hi = append(hi, b[j])
			j++
		}
	}
	return lo, hi
}

// ApplySchedule runs a comparator schedule over per-processor blocks
// sequentially (sorting each block first), mutating blocks in place.
// It is the reference executor BitonicSchedule is checked with; core's
// bitonic router executes the same schedule with real message traffic.
func ApplySchedule(blocks [][]int64, rounds [][]Comparator) {
	for _, b := range blocks {
		sortInt64(b)
	}
	for _, round := range rounds {
		for _, c := range round {
			lo, hi := MergeSplit(blocks[c.A], blocks[c.B])
			copy(blocks[c.A], lo)
			copy(blocks[c.B], hi)
		}
	}
}

func sortInt64(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// ColumnsortSequential sorts the columns in place; cols[j] is the
// column held by processor j, all of equal length r. It panics if the
// validity conditions fail. It is the reference executor that
// TransposeDest, UntransposeDest and ColumnsortValid are checked with;
// core's columnsort router runs the same phases with real message
// traffic.
func ColumnsortSequential(cols [][]int64) {
	s := len(cols)
	if s == 0 {
		return
	}
	r := len(cols[0])
	for j, c := range cols {
		if len(c) != r {
			panic(fmt.Sprintf("sortnet: column %d has %d elements, want %d", j, len(c), r))
		}
	}
	if !ColumnsortValid(r, s) {
		panic(fmt.Sprintf("sortnet: Columnsort invalid for r=%d s=%d (need s|r, r even, r >= 2(s-1)^2)", r, s))
	}
	if s == 1 {
		sortInt64(cols[0])
		return
	}

	redistribute := func(dest func(col, idx int) (int, int)) {
		next := make([][]int64, s)
		for j := range next {
			next[j] = make([]int64, r)
		}
		for j := 0; j < s; j++ {
			for i := 0; i < r; i++ {
				dc, di := dest(j, i)
				next[dc][di] = cols[j][i]
			}
		}
		for j := range cols {
			copy(cols[j], next[j])
		}
	}

	// Phases 1-5.
	for j := range cols {
		sortInt64(cols[j])
	}
	redistribute(func(c, i int) (int, int) { return TransposeDest(r, s, c, i) })
	for j := range cols {
		sortInt64(cols[j])
	}
	redistribute(func(c, i int) (int, int) { return UntransposeDest(r, s, c, i) })
	for j := range cols {
		sortInt64(cols[j])
	}

	// Phase 6: boundary merges. Windows are disjoint, so process
	// left to right.
	half := r / 2
	for j := 0; j+1 < s; j++ {
		window := make([]int64, 0, r)
		window = append(window, cols[j][half:]...)
		window = append(window, cols[j+1][:half]...)
		sortInt64(window)
		copy(cols[j][half:], window[:half])
		copy(cols[j+1][:half], window[half:])
	}
}
