// Package runq provides the monotone min-queue shared by the
// simulators' schedulers: the logp engine's ready queue, core's guest
// ready queue, the Theorem 1 cycle engine's event queue and the
// network co-simulation's submission queue.
package runq

// Ref is one queue entry: the (At, Tie) sort key plus a slab index. A
// ready queue keys runnable processors by (clock, id) with Idx the
// processor id; an event queue keys messages by (arrival, seq) with Idx
// the message record. Keys must be unique within a queue, and an
// entry's key must not change while it is queued: a processor's clock
// moves only while it is out of its queue, so a copied key never goes
// stale.
type Ref struct {
	At  int64
	Tie int64
	Idx int32
}

// Before orders entries by (At, Tie).
func (a Ref) Before(b Ref) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Tie < b.Tie
}

// Queue is a sorted FIFO in a power-of-two ring buffer, with a binary
// heap as fallback. A push at or after the ring's tail is appended to
// the ring; any other push goes to the heap. The ring therefore stays
// sorted, so the queue's minimum is the smaller of the ring's head and
// the heap's top, and with unique keys the pop order is exactly a
// single heap's. That holds for any push sequence; monotonicity only
// decides how cheap the queue is.
//
// The schedulers' queues are monotone: they pop in nondecreasing key
// order, and nearly every push lands at or after the ring's tail (a
// processor re-parks later than the ones queued behind it, startup
// parks processors in id order, a cycle's deliveries share one
// boundary instant in seq order). Those operations are O(1) ring
// appends and pops that chase no pointers; only out-of-order pushes,
// such as wakes whose clocks interleave, pay O(log n) in the heap.
//
// The zero Queue is empty and ready to use.
type Queue struct {
	ring []Ref // len(ring) is a power of two, or 0
	head int   // index of the ring's first entry
	n    int   // ring occupancy
	heap []Ref // min-heap of the pushes that missed the ring's tail
}

// Len returns the number of queued entries.
func (q *Queue) Len() int { return q.n + len(q.heap) }

// Reset empties the queue, keeping both backings for the next run.
func (q *Queue) Reset() {
	q.head, q.n = 0, 0
	q.heap = q.heap[:0]
}

// heapFirst reports whether the smallest entry is the heap's top
// rather than the ring's head; the queue must not be empty.
func (q *Queue) heapFirst() bool {
	return q.n == 0 || len(q.heap) > 0 && q.heap[0].Before(q.ring[q.head])
}

// Min returns the smallest entry; the queue must not be empty.
func (q *Queue) Min() Ref {
	if q.heapFirst() {
		return q.heap[0]
	}
	return q.ring[q.head]
}

// Push inserts ref.
//
//hot:path per-event scheduling step of both engines
func (q *Queue) Push(ref Ref) {
	mask := len(q.ring) - 1
	if q.n > 0 && ref.Before(q.ring[(q.head+q.n-1)&mask]) {
		q.heapPush(ref)
		return
	}
	if q.n == len(q.ring) {
		q.grow()
		mask = len(q.ring) - 1
	}
	q.ring[(q.head+q.n)&mask] = ref
	q.n++
}

// PopMin removes and returns the smallest entry; the queue must not be
// empty.
//
//hot:path per-event scheduling step of both engines
func (q *Queue) PopMin() Ref {
	if q.heapFirst() {
		return q.heapPop()
	}
	top := q.ring[q.head]
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return top
}

// grow doubles the full ring, unwrapping it to start at index 0.
//
//hot:cold ring growth: the ring reaches its high-water capacity once and is reused across runs
func (q *Queue) grow() {
	ring := make([]Ref, max(16, 2*len(q.ring)))
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// AppendAll appends every queued entry to dst, in no particular order.
func (q *Queue) AppendAll(dst []Ref) []Ref {
	for i := 0; i < q.n; i++ {
		dst = append(dst, q.ring[(q.head+i)&(len(q.ring)-1)])
	}
	return append(dst, q.heap...)
}

func (q *Queue) heapPush(ref Ref) {
	a := append(q.heap, ref)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a[i].Before(a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	q.heap = a
}

func (q *Queue) heapPop() Ref {
	a := q.heap
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && a[l].Before(a[min]) {
			min = l
		}
		if r < n && a[r].Before(a[min]) {
			min = r
		}
		if min == i {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	q.heap = a
	return top
}
