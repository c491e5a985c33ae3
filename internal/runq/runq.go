// Package runq provides the monotone min-queue shared by the
// simulators' schedulers: the logp engine's ready queue, core's guest
// ready queue, the Theorem 1 cycle engine's event queue and the
// network co-simulation's submission queue.
//
// Most pushes land at or after the queue's tail: startup parks
// processors in id order, a committed processor re-parks later than
// the ones queued behind it, and a cycle's deliveries share one
// boundary instant in seq order. How many miss the tail depends on the
// traffic. Counted over op 0 of each benchmark workload at seed 1, with
// the number of side runs a first fit needs to hold every miss:
//
//   - randomized route, p = 8,192: 38,858 of 131,058 pushes (29.6%),
//     3 runs, 38,538 of the misses in the first;
//   - Theorem 2 routers, p = 64, h ∈ {1, 4, 16, 32}: randomized 4,396
//     of 9,668, 8 runs; off-line 2,622 of 13,170, 4 runs;
//     deterministic 5,378 of 156,609, more than 16 runs;
//   - Theorem 1 replay of a ring and a broadcast, p = 32,768: 8,069
//     of 294,909, 1 run;
//   - cyclic-shift route and barrier, p = 8,192: 6 of 162,812, 1 run.
//
// The logp engine's wakes make the misses sorted streams. Its
// processInstant wakes the processors an instant completed in two
// passes over id-ordered bitsets: accepted senders resume at the
// instant, receivers o later unless their clock or gap holds them
// back, and each runs on to its next operation before it is pushed.
// Where that local work is uniform, each pass pushes ascending keys,
// the second above the first, and all below the processors already
// re-parked at later clocks; so an instant's wakes extend one side
// run, and only a processor whose clock or work takes it past the
// others starts another. The routers' Programs do unequal work between
// wakes, so their misses spread over more runs, and those beyond the
// side runs go to the heap.
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

// sideRuns is the number of side runs: three hold every tail miss of
// the randomized route.
const sideRuns = 3

// heapSrc names the heap as a source of entries; 0 names the main ring
// and 1 to sideRuns the side runs.
const heapSrc = sideRuns + 1

// Queue is a k-way merge of sorted FIFO runs, each a power-of-two ring
// buffer, with a binary heap as the last resort. A push at or after
// the main ring's tail is appended to it. A push that misses goes to
// the first side run whose tail it does not precede, or to an empty
// one, and only a push that misses every run goes to the heap. Every
// run therefore stays sorted, so the queue's minimum is the least of
// the run heads and the heap's top, and with unique keys the pop order
// is exactly a single heap's. That holds for any push sequence;
// monotonicity only decides how cheap the queue is.
//
// While every entry sits in the main ring, Push and PopMin are O(1)
// ring operations that read only the main ring and the outside count,
// and chase no pointers. Otherwise a push that misses scans at most sideRuns tails,
// and a pop compares the main ring's head with the least entry outside
// it, whose source is cached between pops.
//
// The zero Queue is empty and ready to use.
type Queue struct {
	main    ring   // run 0
	outside int    // entries in the side runs and the heap
	src     int    // source of the least entry outside main, 1 to heapSrc; 0 if unknown
	side    *sides // allocated by the first push that misses main's tail
}

// sides holds the entries that missed the main ring's tail.
type sides struct {
	runs [sideRuns]ring // runs 1 to sideRuns
	heap []Ref          // min-heap of the pushes that missed every run
}

// ring is a sorted FIFO in a power-of-two ring buffer.
type ring struct {
	buf  []Ref // len(buf) is a power of two, or 0
	head int   // index of the first entry
	n    int   // occupancy
}

// Len returns the number of queued entries.
func (q *Queue) Len() int { return q.main.n + q.outside }

// Reset empties the queue, keeping every backing for the next run.
func (q *Queue) Reset() {
	q.main.head, q.main.n = 0, 0
	q.outside, q.src = 0, 0
	if s := q.side; s != nil {
		for i := range s.runs {
			s.runs[i].head, s.runs[i].n = 0, 0
		}
		s.heap = s.heap[:0]
	}
}

// Min returns the smallest entry; the queue must not be empty.
func (q *Queue) Min() Ref {
	if q.outside == 0 {
		return q.main.buf[q.main.head]
	}
	return q.minMixed()
}

// Push inserts ref.
//
//hot:path per-event scheduling step of both engines
func (q *Queue) Push(ref Ref) {
	r := &q.main
	if r.n > 0 && ref.Before(r.last()) {
		q.pushSide(ref)
		return
	}
	r.push(ref)
}

// PopMin removes and returns the smallest entry; the queue must not be
// empty.
//
//hot:path per-event scheduling step of both engines
func (q *Queue) PopMin() Ref {
	if q.outside == 0 {
		return q.main.pop()
	}
	s := q.source()
	if s == 0 {
		return q.main.pop()
	}
	q.outside--
	q.src = 0
	if s == heapSrc {
		return q.side.heapPop()
	}
	return q.side.runs[s-1].pop()
}

// AppendAll appends every queued entry to dst, in no particular order.
func (q *Queue) AppendAll(dst []Ref) []Ref {
	dst = q.main.appendTo(dst)
	if s := q.side; s != nil {
		for i := range s.runs {
			dst = s.runs[i].appendTo(dst)
		}
		dst = append(dst, s.heap...)
	}
	return dst
}

// pushSide queues ref, which precedes the main ring's tail, in the
// first side run that stays sorted with it, else in an empty side run,
// else in the heap.
func (q *Queue) pushSide(ref Ref) {
	if q.side == nil {
		q.openSides()
	}
	s, empty := heapSrc, 0
	for i := range q.side.runs {
		r := &q.side.runs[i]
		if r.n == 0 {
			if empty == 0 {
				empty = i + 1
			}
		} else if !ref.Before(r.last()) {
			s = i + 1
			break
		}
	}
	if s == heapSrc && empty != 0 {
		s = empty
	}
	if q.outside == 0 || q.src != 0 && ref.Before(q.first(q.src)) {
		q.src = s
	}
	q.outside++
	if s == heapSrc {
		q.side.heapPush(ref)
		return
	}
	q.side.runs[s-1].push(ref)
}

// openSides allocates the side runs and the heap.
//
//hot:cold first miss only: the side structures are kept across Reset
func (q *Queue) openSides() { q.side = new(sides) }

// minMixed is Min while some entry sits outside the main ring, kept
// out of line so that Min inlines.
func (q *Queue) minMixed() Ref { return q.first(q.source()) }

// source returns the source of the smallest entry; some entry must sit
// outside the main ring.
func (q *Queue) source() int {
	if q.src == 0 {
		q.src = q.side.least()
	}
	if q.main.n > 0 && q.main.buf[q.main.head].Before(q.first(q.src)) {
		return 0
	}
	return q.src
}

// first returns the least entry of source s, which must not be empty.
func (q *Queue) first(s int) Ref {
	switch s {
	case 0:
		return q.main.buf[q.main.head]
	case heapSrc:
		return q.side.heap[0]
	}
	r := &q.side.runs[s-1]
	return r.buf[r.head]
}

// least returns the source, 1 to heapSrc, of the least entry of s,
// which must not be empty.
func (s *sides) least() int {
	src := 0
	var min Ref
	for i := range s.runs {
		r := &s.runs[i]
		if r.n > 0 && (src == 0 || r.buf[r.head].Before(min)) {
			src, min = i+1, r.buf[r.head]
		}
	}
	if len(s.heap) > 0 && (src == 0 || s.heap[0].Before(min)) {
		src = heapSrc
	}
	return src
}

// last returns the ring's tail entry; the ring must not be empty.
func (r *ring) last() Ref {
	return r.buf[(r.head+r.n-1)&(len(r.buf)-1)]
}

// push appends ref at the ring's tail.
func (r *ring) push(ref Ref) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ref
	r.n++
}

// pop removes and returns the ring's head; the ring must not be empty.
func (r *ring) pop() Ref {
	top := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return top
}

// grow doubles the full ring, unwrapping it to start at index 0.
//
//hot:cold ring growth: each ring reaches its high-water capacity once and is reused across runs
func (r *ring) grow() {
	buf := make([]Ref, max(16, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// appendTo appends the ring's entries to dst in order.
func (r *ring) appendTo(dst []Ref) []Ref {
	for j := 0; j < r.n; j++ {
		dst = append(dst, r.buf[(r.head+j)&(len(r.buf)-1)])
	}
	return dst
}

func (s *sides) heapPush(ref Ref) {
	a := append(s.heap, ref)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a[i].Before(a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	s.heap = a
}

func (s *sides) heapPop() Ref {
	a := s.heap
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
	s.heap = a
	return top
}
