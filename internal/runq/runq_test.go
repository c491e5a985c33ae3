package runq

import (
	"container/heap"
	"testing"
	"unsafe"
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

// queueCoverage records which queue states a differential run reached.
type queueCoverage struct {
	wrapped         bool // the main ring's occupied span crossed the end of its backing
	grewWrapped     bool // the main ring grew while wrapped
	sideOpened      bool // a push missed the main ring's tail and went to an empty side run
	sideGrewWrapped bool // a side run grew while wrapped
	heapUsed        bool // a push missed every run and went to the heap
	mixedPops       bool // three consecutive pops came from the main ring, a side run and the heap
}

// Pop sources, as the coverage sees them.
const (
	fromRing = iota + 1
	fromSide
	fromHeap
)

// sideRunsOf and heapLen read the side structures of q, which are nil
// until a push first misses the main ring's tail.
func sideRunsOf(q *Queue) [sideRuns]ring {
	if q.side == nil {
		return [sideRuns]ring{}
	}
	return q.side.runs
}

func heapLen(q *Queue) int {
	if q.side == nil {
		return 0
	}
	return len(q.side.heap)
}

// pushKey is the key a push byte b makes: its time is the last popped
// time plus (b>>2)%8 - 2, so pushes may land before the last pop, at
// it, or after the ring's tail. The high bits and the push counter make
// every key unique, as the engines' (clock, id) and (time, seq) keys
// are.
func pushKey(b byte, last, count int64) Ref {
	return Ref{At: last + int64(b>>2)%8 - 2, Tie: int64(b>>5)<<32 | count, Idx: int32(count)}
}

// diffQueue replays data as an interleaving of pushes and pops on a
// Queue and on the reference heap, failing on the first divergence. A
// byte with low bits 00 pops; any other byte pushes pushKey's key.
func diffQueue(t *testing.T, data []byte) queueCoverage {
	var q Queue
	var ref refHeap
	var cov queueCoverage
	var last, count int64
	var prev [2]int // the sources of the two pops before this one
	pop := func() {
		want := heap.Pop(&ref).(Ref)
		if got := q.Min(); got != want {
			t.Fatalf("Min() = %+v, want %+v", got, want)
		}
		ringLen, inHeap := q.main.n, heapLen(&q)
		if got := q.PopMin(); got != want {
			t.Fatalf("PopMin() = %+v, want %+v", got, want)
		}
		src := fromSide
		switch {
		case q.main.n < ringLen:
			src = fromRing
		case heapLen(&q) < inHeap:
			src = fromHeap
		}
		cov.mixedPops = cov.mixedPops || src != prev[1] && src != prev[0] && prev[0] != prev[1] && prev[0] != 0
		prev = [2]int{prev[1], src}
		last = want.At
	}
	for _, b := range data {
		if b&3 == 0 {
			if ref.Len() > 0 {
				pop()
			}
		} else {
			count++
			k := pushKey(b, last, count)
			if r := &q.main; r.n == len(r.buf) && r.head != 0 {
				cov.grewWrapped = true
			}
			before, inHeap := sideRunsOf(&q), heapLen(&q)
			q.Push(k)
			heap.Push(&ref, k)
			after := sideRunsOf(&q)
			for i, r := range after {
				was := before[i]
				cov.sideOpened = cov.sideOpened || was.n == 0 && r.n == 1
				cov.sideGrewWrapped = cov.sideGrewWrapped || was.head != 0 && len(r.buf) > len(was.buf)
			}
			cov.heapUsed = cov.heapUsed || heapLen(&q) > inHeap
			cov.wrapped = cov.wrapped || q.main.head+q.main.n > len(q.main.buf)
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

// queueSeeds are FuzzQueue's corpus:
//
//   - wrap: a monotone fill that wraps the main ring and then grows it
//     while wrapped;
//   - mixed: early pushes that land before the main ring's tail;
//   - sideWrap: one late key in the main ring, then a stream of earlier
//     ones that opens a side run, wraps it and grows it while wrapped;
//   - spill: pushes that fill every side run and then miss them all,
//     so the heap takes some; the drain then pops from the main ring,
//     the heap and a side run in turn.
func queueSeeds() [][]byte {
	const push, pop = 9, 0 // push: same time as the last pop, next counter
	repeat := func(runs ...[2]int) []byte {
		var s []byte
		for _, r := range runs {
			for i := 0; i < r[1]; i++ {
				s = append(s, byte(r[0]))
			}
		}
		return s
	}
	wrap := repeat([2]int{push, 16}, [2]int{pop, 8}, [2]int{push, 12}, [2]int{pop, 4}, [2]int{push, 30})
	mixed := []byte{29, 1, 5, 253, 2, 0, 17, 9, 0, 0, 13, 6, 227, 0, 30, 31, 7, 0, 0, 0, 21, 14, 0}
	// late is a push three instants after the last pop.
	const late = 5<<2 | 1
	sideWrap := repeat([2]int{late, 1}, [2]int{push, 16}, [2]int{pop, 8}, [2]int{push, 9})
	// key(k) pushes the k-th smallest of 64 keys, before any pop: its
	// time is k/8 - 2 and its high bits k%8.
	key := func(k int) byte { return byte(k%8)<<5 | byte(k/8)<<2 | 1 }
	var spill []byte
	for _, k := range []int{1, 50, 10, 40, 5, 30, 3, 20, 2, 15, 60} {
		spill = append(spill, key(k))
	}
	return [][]byte{wrap, mixed, sideWrap, spill}
}

// FuzzQueue checks the queue of ring, side runs and heap pop for pop
// against a plain binary heap under arbitrary interleavings, including
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
// seeds must reach every queueCoverage state, so a plain go test
// exercises the main ring's wrap and growth, the side runs, the heap
// and pops that alternate among them.
func TestQueueSeedCoverage(t *testing.T) {
	var all queueCoverage
	for _, s := range queueSeeds() {
		c := diffQueue(t, s)
		all.wrapped = all.wrapped || c.wrapped
		all.grewWrapped = all.grewWrapped || c.grewWrapped
		all.sideOpened = all.sideOpened || c.sideOpened
		all.sideGrewWrapped = all.sideGrewWrapped || c.sideGrewWrapped
		all.heapUsed = all.heapUsed || c.heapUsed
		all.mixedPops = all.mixedPops || c.mixedPops
	}
	if all != (queueCoverage{true, true, true, true, true, true}) {
		t.Fatalf("seed coverage %+v, want every state reached", all)
	}
}

// TestWarmQueueResetAllocs checks that a Queue reused across Reset
// allocates nothing once its rings and heap have reached their
// high-water capacities.
func TestWarmQueueResetAllocs(t *testing.T) {
	seeds := queueSeeds()
	var q Queue
	replay := func() {
		for _, s := range seeds {
			q.Reset()
			var last, count int64
			for _, b := range s {
				if b&3 != 0 {
					count++
					q.Push(pushKey(b, last, count))
				} else if q.Len() > 0 {
					last = q.PopMin().At
				}
			}
			for q.Len() > 0 {
				q.PopMin()
			}
		}
	}
	replay()
	if n := testing.AllocsPerRun(10, replay); n != 0 {
		t.Fatalf("warm replay allocated %v objects per run, want 0", n)
	}
}

// TestQueueSize pins the Queue at 64 bytes: the side runs and the heap
// sit behind one pointer, so the engine structs that embed a Queue do
// not grow for them.
func TestQueueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes below assume a 64-bit platform")
	}
	if got := unsafe.Sizeof(Queue{}); got != 64 {
		t.Fatalf("Queue is %d bytes, want 64", got)
	}
}
