package logp

import (
	"container/heap"
	"strings"
	"testing"
)

// wheelEvent is one pushed event as the oracle sees it.
type wheelEvent struct {
	t    int64
	kind eventKind
	idx  int32 // push order, which is also the record index
}

// refEventHeap is the oracle for eventWheel: a container/heap binary
// heap ordered by (time, kind, push order), the engine's commit order.
type refEventHeap []wheelEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.idx < b.idx
}
func (h refEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x interface{}) { *h = append(*h, x.(wheelEvent)) }
func (h *refEventHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// wheelCoverage records which wheel states a differential run reached.
type wheelCoverage struct {
	wrapped  bool // the minimum moved from a later bucket to an earlier one
	gapped   bool // a pop skipped empty buckets to find the next minimum
	wordSkip bool // that scan moved into another occupancy word
}

// diffEventWheel replays data as an interleaving of pushes and pops on
// an eventWheel and on the reference heap, failing on the first
// divergence. data[0] picks L in [2, 129] (so W is 64, 128 or 256)
// and data[1] picks G in [2, L]. Every later byte is one step, chosen
// by its low two bits, with the rest (v = b>>2) as its argument:
//
//	0: pop, and commit the popped instant (the base moves to it);
//	1: push a submission at base + v mod (G+1);
//	2: push a delivery at base + 1 + v mod L;
//	3: advance the base by v, but not past the earliest live event.
//
// The base plays the instant the engine is committing, so every push
// lies inside the span the wheel asserts.
func diffEventWheel(t *testing.T, data []byte) wheelCoverage {
	var cov wheelCoverage
	if len(data) < 2 {
		return cov
	}
	L := 2 + int64(data[0])%128
	G := 2 + int64(data[1])%(L-1)
	var w eventWheel
	w.reset(L)
	var recs []msgRec
	var ref refEventHeap
	var base int64
	pop := func() {
		want := heap.Pop(&ref).(wheelEvent)
		if got := w.minTime(); got != want.t {
			t.Fatalf("L=%d: minTime() = %d, want %d", L, got, want.t)
		}
		idx, kind := w.popMin(recs)
		if got := (wheelEvent{want.t, kind, idx}); got != want {
			t.Fatalf("L=%d: popMin() = %+v, want %+v", L, got, want)
		}
		base = want.t
		if w.len() > 0 {
			from, to := want.t&w.mask, w.minTime()&w.mask
			cov.wrapped = cov.wrapped || to < from
			cov.gapped = cov.gapped || w.minTime() > want.t+1
			cov.wordSkip = cov.wordSkip || from>>6 != to>>6
		}
	}
	for _, b := range data[2:] {
		v := int64(b >> 2)
		switch b & 3 {
		case 0:
			if ref.Len() > 0 {
				pop()
			}
		case 1, 2:
			ev := wheelEvent{t: base + v%(G+1), kind: evSubmission, idx: int32(len(recs))}
			if b&3 == 2 {
				ev.t, ev.kind = base+1+v%L, evDelivery
			}
			recs = append(recs, msgRec{})
			w.push(recs, ev.t, ev.kind, ev.idx)
			heap.Push(&ref, ev)
		case 3:
			base += v
			if w.len() > 0 {
				base = min(base, w.minTime())
			}
		}
		if w.len() != ref.Len() {
			t.Fatalf("len() = %d, want %d", w.len(), ref.Len())
		}
	}
	for ref.Len() > 0 {
		pop()
	}
	if w.len() != 0 {
		t.Fatalf("wheel holds %d events after the reference drained", w.len())
	}
	return cov
}

// eventWheelSeeds are FuzzEventWheel's corpus: a small-L run whose
// events straddle gaps and wrap the 64-bucket wheel, and a large-L run
// (W = 128, two occupancy words) whose base jumps make the minimum scan
// cross words and wrap.
func eventWheelSeeds() [][]byte {
	const (
		pop = 0
		sub = 1 | 2<<2  // submission 2 past the base
		del = 2 | 10<<2 // delivery 11 past the base
		adv = 3 | 40<<2 // advance the base by 40
	)
	small := []byte{14, 5} // L = 16, G = 7
	for i := 0; i < 6; i++ {
		small = append(small, sub, del, adv, pop, pop, adv)
	}
	big := []byte{98, 60} // L = 100, G = 62
	for i := 0; i < 5; i++ {
		big = append(big, adv, adv, sub, 2|63<<2, pop, del, pop, pop)
	}
	return [][]byte{small, big}
}

// FuzzEventWheel checks the timing wheel pop for pop against a binary
// heap ordered by (time, kind, push order) under arbitrary
// interleavings of in-span pushes, pops and base advances.
func FuzzEventWheel(f *testing.F) {
	for _, s := range eventWheelSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffEventWheel(t, data)
	})
}

// TestEventWheelSeedCoverage keeps the corpus honest: between them the
// seeds must wrap the wheel, leave empty buckets between live events so
// the occupancy scan runs, and make that scan cross occupancy words.
func TestEventWheelSeedCoverage(t *testing.T) {
	var all wheelCoverage
	for _, s := range eventWheelSeeds() {
		c := diffEventWheel(t, s)
		all.wrapped = all.wrapped || c.wrapped
		all.gapped = all.gapped || c.gapped
		all.wordSkip = all.wordSkip || c.wordSkip
	}
	if !all.wrapped || !all.gapped || !all.wordSkip {
		t.Fatalf("seed coverage %+v, want every state reached", all)
	}
}

// TestEventWheelSpanPanics checks that a push spreading the live events
// over more than L instants — above the latest one or below the
// earliest — panics as an engine bug instead of aliasing buckets.
func TestEventWheelSpanPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		times []int64
	}{
		{"above", []int64{100, 108, 109}},
		{"below", []int64{100, 91}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w eventWheel
			w.reset(8)
			recs := make([]msgRec, len(tc.times))
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "(bug)") {
					t.Fatalf("push outside the span: recovered %v, want a (bug) panic", r)
				}
			}()
			for i, at := range tc.times {
				w.push(recs, at, evDelivery, int32(i))
			}
		})
	}
}
