// Package sortnet provides the oblivious parallel sorting machinery
// used by the deterministic BSP-on-LogP simulation (Section 4.2 of the
// paper): a Batcher bitonic sorting network for p processors with r
// keys each (the practical stand-in for the paper's AKS network, at the
// cost of an extra log p factor in depth), and Leighton's Columnsort
// (the practical stand-in for Cubesort: a constant number of oblivious
// rounds when r >= 2(p-1)^2).
//
// Both algorithms communicate only along input-independent patterns, so
// every round decomposes into 1-relations known in advance — exactly
// the property the paper's routing protocol requires to stay within the
// LogP capacity constraint.
package sortnet

import (
	"fmt"
	"sync"
)

// Comparator is one merge-split link of a network round: processors A
// and B exchange their sorted blocks; A keeps the lower half of the
// merge and B the upper half. For one key per processor this is the
// classical compare-exchange.
type Comparator struct {
	A, B int
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// BitonicSchedule returns the rounds of Batcher's bitonic sorting
// network on p processors (p a power of two). Each round is a perfect
// matching on the processors; there are log2(p)*(log2(p)+1)/2 rounds.
// Applying the rounds in order with merge-split semantics sorts any
// input whose per-processor blocks are locally sorted, leaving block i
// holding global ranks [i*r, (i+1)*r) in ascending order.
func BitonicSchedule(p int) [][]Comparator {
	if !IsPow2(p) {
		panic(fmt.Sprintf("sortnet: BitonicSchedule needs a power-of-two processor count, got %d", p))
	}
	// The schedule is a pure function of p and every processor of every
	// cross-simulation asks for it once per superstep, so memoize it.
	// Cached schedules are shared: callers must treat them as read-only.
	if v, ok := schedCache.Load(p); ok {
		return v.([][]Comparator)
	}
	var rounds [][]Comparator
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			var round []Comparator
			for i := 0; i < p; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				if i&k == 0 {
					// Ascending block: low result at i.
					round = append(round, Comparator{A: i, B: l})
				} else {
					round = append(round, Comparator{A: l, B: i})
				}
			}
			rounds = append(rounds, round)
		}
	}
	v, _ := schedCache.LoadOrStore(p, rounds)
	return v.([][]Comparator)
}

// schedCache memoizes BitonicSchedule by p; machines may run on
// concurrent goroutines, hence the sync.Map.
var schedCache sync.Map

// BitonicDepth returns the number of rounds of BitonicSchedule(p):
// log2(p)*(log2(p)+1)/2.
func BitonicDepth(p int) int {
	if !IsPow2(p) {
		panic(fmt.Sprintf("sortnet: BitonicDepth needs a power of two, got %d", p))
	}
	lg := 0
	for v := p; v > 1; v >>= 1 {
		lg++
	}
	return lg * (lg + 1) / 2
}

// SeqSortCost returns the paper's charge for sorting r keys drawn from
// [0, keyRange] on one processor with Radixsort:
// r * min(ceil(log2 r), ceil(log2(keyRange+1) / log2(r+1))) local
// operations, and at least r. This is the T_seq-sort(r) term of the
// Cubesort-based bound in Section 4.2.
func SeqSortCost(r int, keyRange int) int64 {
	if r <= 1 {
		return int64(r)
	}
	logR := ceilLog2(int64(r))
	logKeys := ceilLog2(int64(keyRange) + 1)
	passes := (logKeys + logR - 1) / logR
	c := logR
	if passes < c {
		c = passes
	}
	if c < 1 {
		c = 1
	}
	return int64(r) * int64(c)
}

func ceilLog2(n int64) int {
	if n <= 1 {
		return 0
	}
	lg := 0
	v := n - 1
	for v > 0 {
		v >>= 1
		lg++
	}
	return lg
}
