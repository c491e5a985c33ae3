package runq

import (
	"container/heap"
	"testing"
)

// refHeap is the oracle for Queue: a plain container/heap binary heap
// over the same keys.
type refHeap []Ref

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].Before(h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Ref)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// queueCoverage records which ring states a differential run reached.
type queueCoverage struct {
	wrapped     bool // the ring's occupied span crossed the end of its backing
	grewWrapped bool // the ring grew while wrapped
	heapUsed    bool // some push missed the ring's tail
}

// diffQueue replays data as an interleaving of pushes and pops on a
// Queue and on the reference heap, failing on the first divergence. A
// byte with low bits 00 pops; any other byte pushes a key whose time is
// the last popped time plus (b>>2)%8 - 2, so pushes may land before the
// last pop, at it, or after the ring's tail. The high bits and a
// counter make every key unique, as the engines' (clock, id) and
// (time, seq) keys are.
func diffQueue(t *testing.T, data []byte) queueCoverage {
	var q Queue
	var ref refHeap
	var cov queueCoverage
	var last, count int64
	pop := func() {
		want := heap.Pop(&ref).(Ref)
		if got := q.Min(); got != want {
			t.Fatalf("Min() = %+v, want %+v", got, want)
		}
		if got := q.PopMin(); got != want {
			t.Fatalf("PopMin() = %+v, want %+v", got, want)
		}
		last = want.At
	}
	for _, b := range data {
		if b&3 == 0 {
			if ref.Len() > 0 {
				pop()
			}
		} else {
			count++
			k := Ref{At: last + int64(b>>2)%8 - 2, Tie: int64(b>>5)<<32 | count, Idx: int32(count)}
			if q.n == len(q.ring) && q.head != 0 {
				cov.grewWrapped = true
			}
			heapLen := len(q.heap)
			q.Push(k)
			heap.Push(&ref, k)
			cov.heapUsed = cov.heapUsed || len(q.heap) > heapLen
			cov.wrapped = cov.wrapped || q.head+q.n > len(q.ring)
		}
		if q.Len() != ref.Len() {
			t.Fatalf("Len() = %d, want %d", q.Len(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		pop()
	}
	if q.Len() != 0 {
		t.Fatalf("queue holds %d entries after the reference drained", q.Len())
	}
	return cov
}

// queueSeeds are FuzzQueue's corpus: a monotone fill that wraps the
// ring and then grows it while wrapped, and a mixed sequence whose
// early pushes land before the ring's tail.
func queueSeeds() [][]byte {
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

// FuzzQueue checks the ring-plus-heap queue pop for pop against a
// plain binary heap under arbitrary interleavings, including
// non-monotone pushes and ring wrap-around at capacity.
func FuzzQueue(f *testing.F) {
	for _, s := range queueSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffQueue(t, data)
	})
}

// TestQueueSeedCoverage keeps the corpus honest: between them the
// seeds must wrap the ring, grow it while wrapped, and route pushes to
// the fallback heap, so a plain go test exercises all three.
func TestQueueSeedCoverage(t *testing.T) {
	var all queueCoverage
	for _, s := range queueSeeds() {
		c := diffQueue(t, s)
		all.wrapped = all.wrapped || c.wrapped
		all.grewWrapped = all.grewWrapped || c.grewWrapped
		all.heapUsed = all.heapUsed || c.heapUsed
	}
	if !all.wrapped || !all.grewWrapped || !all.heapUsed {
		t.Fatalf("seed coverage %+v, want every state reached", all)
	}
}
