package core

import (
	"container/heap"
	"sort"
	"testing"
)

// FuzzSummaryReduce checks that the run-length summary algebra used by
// Theorem 2's s-computation recovers the exact maximum key
// multiplicity for arbitrary sorted sequences with trailing dummies,
// under arbitrary block splits.
func FuzzSummaryReduce(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 5, 5, 5}, uint8(2))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{7, 7, 7, 7}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, blocksRaw uint8) {
		blocks := int(blocksRaw%8) + 1
		keys := make([]int64, 0, len(data))
		for _, b := range data {
			if len(keys) >= 96 {
				break
			}
			keys = append(keys, int64(b%16))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		// Pad to a multiple of blocks with dummies (-1 sorts after,
		// conceptually, since we append them at the end like the
		// router does with key p).
		for len(keys)%blocks != 0 {
			keys = append(keys, -1)
		}
		size := len(keys) / blocks
		if size == 0 {
			return
		}
		sums := make([]runSummary, blocks)
		for b := 0; b < blocks; b++ {
			sums[b] = buildSummary(keys[b*size:(b+1)*size], -1)
		}
		for k := 1; k < blocks; k <<= 1 {
			for i := 0; i+k < blocks; i += 2 * k {
				sums[i] = mergeSummary(sums[i], sums[i+k])
			}
		}
		counts := map[int64]int64{}
		var want int64
		for _, k := range keys {
			if k < 0 {
				continue
			}
			counts[k]++
			if counts[k] > want {
				want = counts[k]
			}
		}
		if sums[0].maxRun != want {
			t.Fatalf("reduced maxRun = %d, want %d (keys %v, blocks %d)", sums[0].maxRun, want, keys, blocks)
		}
	})
}

// refRunHeap is the oracle for cycleRunQueue: a plain container/heap
// binary heap over the same keys.
type refRunHeap []cycleRunRef

func (h refRunHeap) Len() int            { return len(h) }
func (h refRunHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h refRunHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refRunHeap) Push(x interface{}) { *h = append(*h, x.(cycleRunRef)) }
func (h *refRunHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// runQueueCoverage records which ring states a differential run
// reached.
type runQueueCoverage struct {
	wrapped     bool // the ring's occupied span crossed the end of its backing
	grewWrapped bool // the ring grew while wrapped
	heapUsed    bool // some push missed the ring's tail
}

// diffRunQueue replays data as an interleaving of pushes and pops on a
// cycleRunQueue and on the reference heap, failing on the first
// divergence. A byte with low bits 00 pops; any other byte pushes a key
// whose time is the last popped time plus (b>>2)%8 - 2, so pushes may
// land before the last pop, at it, or after the ring's tail. The
// high bits and a counter make every key unique, as the engine's
// (clock, id) and (time, seq) keys are.
func diffRunQueue(t *testing.T, data []byte) runQueueCoverage {
	var q cycleRunQueue
	var ref refRunHeap
	var cov runQueueCoverage
	var last, count int64
	pop := func() {
		want := heap.Pop(&ref).(cycleRunRef)
		if got := q.min(); got != want {
			t.Fatalf("min() = %+v, want %+v", got, want)
		}
		if got := q.popMin(); got != want {
			t.Fatalf("popMin() = %+v, want %+v", got, want)
		}
		last = want.at
	}
	for _, b := range data {
		if b&3 == 0 {
			if ref.Len() > 0 {
				pop()
			}
		} else {
			count++
			k := cycleRunRef{at: last + int64(b>>2)%8 - 2, tie: int64(b>>5)<<32 | count, idx: int32(count)}
			if q.n == len(q.ring) && q.head != 0 {
				cov.grewWrapped = true
			}
			heapLen := len(q.heap)
			q.push(k)
			heap.Push(&ref, k)
			cov.heapUsed = cov.heapUsed || len(q.heap) > heapLen
			cov.wrapped = cov.wrapped || q.head+q.n > len(q.ring)
		}
		if q.len() != ref.Len() {
			t.Fatalf("len() = %d, want %d", q.len(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		pop()
	}
	if q.len() != 0 {
		t.Fatalf("queue holds %d entries after the reference drained", q.len())
	}
	return cov
}

// runQueueSeeds are FuzzCycleRunQueue's corpus: a monotone fill that
// wraps the ring and then grows it while wrapped, and a mixed sequence
// whose early pushes land before the ring's tail.
func runQueueSeeds() [][]byte {
	const push, pop = 9, 0 // push: same time as the last pop, next counter
	var wrap []byte
	for _, run := range []struct {
		b byte
		n int
	}{{push, 16}, {pop, 8}, {push, 12}, {pop, 4}, {push, 30}} {
		for i := 0; i < run.n; i++ {
			wrap = append(wrap, run.b)
		}
	}
	mixed := []byte{29, 1, 5, 253, 2, 0, 17, 9, 0, 0, 13, 6, 227, 0, 30, 31, 7, 0, 0, 0, 21, 14, 0}
	return [][]byte{wrap, mixed}
}

// FuzzCycleRunQueue checks the ring-plus-heap run queue pop for pop
// against a plain binary heap under arbitrary interleavings, including
// non-monotone pushes and ring wrap-around at capacity.
func FuzzCycleRunQueue(f *testing.F) {
	for _, s := range runQueueSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRunQueue(t, data)
	})
}

// TestCycleRunQueueSeedCoverage keeps the corpus honest: between them
// the seeds must wrap the ring, grow it while wrapped, and route pushes
// to the fallback heap, so a plain go test exercises all three.
func TestCycleRunQueueSeedCoverage(t *testing.T) {
	var all runQueueCoverage
	for _, s := range runQueueSeeds() {
		c := diffRunQueue(t, s)
		all.wrapped = all.wrapped || c.wrapped
		all.grewWrapped = all.grewWrapped || c.grewWrapped
		all.heapUsed = all.heapUsed || c.heapUsed
	}
	if !all.wrapped || !all.grewWrapped || !all.heapUsed {
		t.Fatalf("seed coverage %+v, want every state reached", all)
	}
}
