// Package core implements the paper's primary contribution: the
// cross-simulations between the BSP and LogP models.
//
//   - LogPOnBSP executes an unmodified LogP program under BSP cost
//     semantics using the cycle construction of Theorem 1 (supersteps of
//     L/2 LogP time units), including the sorting-based extension for
//     programs that would stall.
//   - LogPOnNet runs an unmodified LogP program directly on a packet
//     network (Section 5): processors are paced by o and G, and the
//     network decides every delivery. It and LogPOnBSP run their guest
//     processors on one shared runtime (guests.go); each adds only its
//     medium and its commit loop.
//   - BSPOnLogP executes an unmodified BSP program on a real LogP
//     machine, one superstep at a time: local computation, the
//     Combine-and-Broadcast barrier of Proposition 2, then one of three
//     h-relation routers — the deterministic sorting-based protocol of
//     Theorem 2, the randomized batching protocol of Theorem 3, or the
//     off-line Hall decomposition of Section 4.2.
//
// Both directions measure real executions: the slowdowns reported by
// the benchmark harness are ratios of simulator-clock times, not
// formula evaluations.
package core

import "repro/internal/logp"

// Tag space used by the cross-simulators. User programs routed through
// BSPOnLogP may use any tag; protocol traffic is carried in dedicated
// negative tags (see bsponlogp.go for the full layout) and user data
// rides in the two alternating data tags below.
const (
	tagBarrier int32 = -100 // barrier CB ascend (descend uses -99)
	tagData0   int32 = -60  // routed user data, even supersteps
	tagData1   int32 = -59  // routed user data, odd supersteps
)

// dataTag returns the user-data tag for a superstep, alternating parity
// so that data from superstep k+1 arriving early at a processor still
// draining superstep k is parked by the mailbox rather than miscounted.
func dataTag(superstep int) int32 {
	if superstep%2 == 0 {
		return tagData0
	}
	return tagData1
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("core: ceilDiv by non-positive")
	}
	return (a + b - 1) / b
}

func log2Ceil(n int) int {
	lg := 0
	v := 1
	for v < n {
		v <<= 1
		lg++
	}
	return lg
}

// matchedParams returns BSP parameters matched to LogP parameters
// (g = G, l = L), the setting under which Theorem 1's slowdown is
// constant and Theorem 2's slowdown equals S(L,G,p,h).
func matchedParams(lp logp.Params) (g, l int64) {
	return lp.G, lp.L
}
