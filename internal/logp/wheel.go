package logp

import (
	"fmt"
	"math/bits"
)

type eventKind uint8

const (
	evDelivery eventKind = iota
	evSubmission
)

// eventWheel is the medium's event queue: a timing wheel of W buckets,
// W a power of two greater than L (and at least 64, one occupancy
// word), where instant t owns bucket t mod W. Each bucket holds two
// intrusive FIFOs threaded through msgRec.next — the record is in no
// input buffer or free list while its event is pending — deliveries
// first, then submissions, so a bucket pops in exactly (time, kind,
// push order). An occupancy bitset marks the non-empty buckets, and the
// earliest live time is cached, so the scheduler reads the minimum in
// O(1) and a pop that empties its bucket finds the next one with a
// word scan.
//
// Span. Let b be the instant the engine is committing: processInstant's
// t, or the clock of the processor exec runs, which commitLoop runs only
// while every pending event is later than that clock. Commits happen
// in time order, so b never decreases. Every live event lies in
// [b, b+L]:
//   - exec submits at s = max(clock+o, nextComm). o <= G (Validate),
//     and nextComm is G past the processor's last communication
//     instant, which is at most its clock; so s <= b+G <= b+L.
//   - processInstant(t) accepts into (t, t+L], so a delivery is at
//     most L past its acceptance.
//   - An event pushed under an earlier base b' <= b is at most
//     b'+L <= b+L, and none is pending below the instant being
//     committed.
//
// Live times therefore spread over at most L < W instants: distinct
// live instants own distinct buckets, and the successor of the minimum
// is the first occupied bucket after it, less than W away. push checks
// the spread against L, so a violation panics instead of silently
// aliasing two instants in one bucket.
type eventWheel struct {
	buckets []wheelBucket
	occ     []uint64 // bit i set while bucket i holds an event
	mask    int64    // W - 1
	span    int64    // L: the widest spread of live event times
	n       int      // live events
	min     int64    // earliest live event time, valid while n > 0
	hi      int64    // latest time pushed since the wheel was last empty
}

// wheelBucket holds one instant's events as two FIFOs of recSlab
// indices; heads and tails are -1 when empty.
type wheelBucket struct {
	delHead, delTail int32
	subHead, subTail int32
}

// reset empties the wheel and sizes it for latency L: W is the
// smallest power of two above L, and at least 64.
//
//hot:cold per-Run setup
func (w *eventWheel) reset(L int64) {
	size := max(64, int64(1)<<bits.Len64(uint64(L)))
	// A Run cut short by a panic can leave events behind; a drained
	// wheel is already all empty buckets.
	if fresh := int64(len(w.buckets)) != size; fresh || w.n > 0 {
		if fresh {
			w.buckets, w.occ = make([]wheelBucket, size), make([]uint64, size/64)
		}
		for i := range w.buckets {
			w.buckets[i] = wheelBucket{-1, -1, -1, -1}
		}
		clear(w.occ)
	}
	w.mask, w.span, w.n = size-1, L, 0
}

func (w *eventWheel) len() int { return w.n }

// minTime returns the earliest pending event time; the wheel must be
// non-empty.
func (w *eventWheel) minTime() int64 { return w.min }

// push appends record idx's event at instant t to its bucket's FIFO of
// the given kind.
//
//hot:path per-event medium queue
func (w *eventWheel) push(recs []msgRec, t int64, kind eventKind, idx int32) {
	if w.n == 0 {
		w.min, w.hi = t, t
	} else {
		w.min, w.hi = min(w.min, t), max(w.hi, t)
		if w.hi-w.min > w.span {
			panic(fmt.Sprintf("logp: event at %d leaves the wheel's span: live events in [%d, %d], wider than L = %d (bug)", t, w.min, w.hi, w.span))
		}
	}
	i := t & w.mask
	b := &w.buckets[i]
	recs[idx].next = -1
	if kind == evDelivery {
		if b.delTail >= 0 {
			recs[b.delTail].next = idx
		} else {
			b.delHead = idx
		}
		b.delTail = idx
	} else {
		if b.subTail >= 0 {
			recs[b.subTail].next = idx
		} else {
			b.subHead = idx
		}
		b.subTail = idx
	}
	w.occ[i>>6] |= 1 << uint(i&63)
	w.n++
}

// popMin removes the first event at the earliest instant — deliveries
// before submissions, each in push order — and returns its record
// index and kind; the wheel must be non-empty.
//
//hot:path per-event medium queue
func (w *eventWheel) popMin(recs []msgRec) (int32, eventKind) {
	i := w.min & w.mask
	b := &w.buckets[i]
	idx, kind := b.delHead, evDelivery
	if idx >= 0 {
		if b.delHead = recs[idx].next; b.delHead < 0 {
			b.delTail = -1
		}
	} else {
		idx, kind = b.subHead, evSubmission
		if b.subHead = recs[idx].next; b.subHead < 0 {
			b.subTail = -1
		}
	}
	w.n--
	if b.delHead < 0 && b.subHead < 0 {
		w.occ[i>>6] &^= 1 << uint(i&63)
		if w.n > 0 {
			w.min = w.nextAfter(w.min)
		}
	}
	return idx, kind
}

// nextAfter returns the earliest occupied instant after t: the first
// set occupancy bit after t's bucket, wrapping once around the wheel.
// Some bucket must be occupied, and by the span argument it lies less
// than W instants after t.
func (w *eventWheel) nextAfter(t int64) int64 {
	start := (t + 1) & w.mask
	wi := int(start >> 6)
	word := w.occ[wi] &^ (1<<uint(start&63) - 1)
	for word == 0 {
		if wi++; wi == len(w.occ) {
			wi = 0
		}
		word = w.occ[wi]
	}
	i := int64(wi<<6 | bits.TrailingZeros64(word))
	return t + 1 + (i-start)&w.mask
}
