package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/logp"
	"repro/internal/sortnet"
)

// routeDeterministic is Theorem 2's four-step protocol:
//
//  1. Compute r (the maximum out-degree) by CB and pad every
//     processor's message set to exactly r with dummies addressed to
//     the nominal destination p.
//  2. Sort all p*r messages by destination on an oblivious network
//     (Batcher bitonic; see DESIGN.md for the AKS substitution) so that
//     processor i ends up holding global ranks [i*r, (i+1)*r).
//  3. Compute s (the maximum in-degree) — realized here by a run-length
//     summary reduce over the sorted sequence followed by a broadcast —
//     and set h = max(r, s).
//  4. Deliver rank classes mod h in pipelined cycles every G steps;
//     within a class every processor sends at most one message and
//     every destination receives at most one, so the capacity
//     constraint holds and the phase completes in 2o + G(h-1) + L.
func (a *bspAdapter) routeDeterministic(st *stepState, dtag int32) []logp.Message {
	lp := a.lp
	p := lp.P()
	id := lp.ID()

	// Step 1: r by CB(MAX), then dummy padding. The networks move
	// handles, not message copies: a routed item points into
	// st.outRouted[id], which is final once every processor has
	// registered (the barrier CB precedes this) and is recycled only
	// at the step's last finishStep, after every processor has copied
	// its inbox; a dummy points at this adapter's dummy message.
	mine := st.outRouted[id]
	r64 := collective.CombineBroadcast(a.mb, tagRCount, int64(len(mine)), collective.OpMax)
	if r64 == 0 {
		return nil
	}
	r := int(r64)
	items := a.block[:0]
	for j := range mine {
		items = append(items, &mine[j])
	}
	for len(items) < r {
		items = append(items, &a.dummy)
	}

	// Step 2: the oblivious sorting network. SortAuto uses bitonic
	// for small r and columnsort once r reaches its validity regime
	// (or when p is not a power of two, which bitonic cannot handle).
	useColumn := false
	switch a.sim.spec.Sort {
	case SortColumnsort:
		useColumn = true
	case SortBitonic:
		useColumn = false
	default:
		useColumn = !isPow2(p) || r >= 2*(p-1)*(p-1)
	}
	var sortEnd int64
	if useColumn {
		items, sortEnd = a.columnsortSort(items)
	} else {
		lp.Compute(sortnet.SeqSortCost(r, p+1))
		slices.SortFunc(items, compareItems)
		sortEnd = a.bitonicSort(items)
	}
	a.block = items
	rEff := int64(len(items)) // columnsort may have padded the blocks

	// Step 3: s via the summary reduce over the sorted sequence.
	s64 := a.computeS(items, p, sortEnd)
	h := rEff
	if s64 > h {
		h = s64
	}

	// Step 4: pipelined delivery of rank classes mod h. Items whose
	// sorted position already is their destination need no network
	// hop; they follow the delivered ones in sorted order.
	base := a.globalBase()
	sched := a.schedule(h)
	rankBase := int64(id) * rEff
	for j, item := range items {
		if item.Dst == p || item.Dst == id {
			continue // dummy or local
		}
		c := (rankBase + int64(j)) % h
		if sched[c] != nil {
			panic("core: two messages in the same delivery class at one processor (bug)")
		}
		sched[c] = item
	}
	got := a.deliverWindowed(sched, base, dtag)
	for _, item := range items {
		if item.Dst == id {
			got = append(got, logp.Message{Src: item.Src, Dst: id, Tag: dtag, Body: item})
		}
	}
	return got
}

// compareItems is the three-way total order the deterministic router
// sorts messages in: primarily by destination (the routing key; the
// dummy destination p sorts last), then by every other field, so items
// that compare equal are equal values and every sorted block is
// identical under every message-arrival order.
func compareItems(x, y *bsp.Message) int {
	if c := cmp.Compare(x.Dst, y.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Src, y.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Tag, y.Tag); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Payload, y.Payload); c != 0 {
		return c
	}
	return cmp.Compare(x.Aux, y.Aux)
}

// mergeSplit is the comparator of the block sorting networks. mine is
// sorted; theirs is a block that was sent sorted, and is sorted here
// first only if it arrived out of send order (DeliverRandom can reorder
// a block in flight; DeliverMaxLatency cannot). mergeSplit then writes
// the len(dst) smallest items of both blocks (keepLow) or the len(dst)
// largest into dst in sorted order, by one linear merge from the front
// or from the back. With len(dst) = len(mine)+len(theirs) it is a full
// merge. dst must not overlap mine or theirs.
//
//hot:path per-round comparator of the Theorem 2 sorting networks
func mergeSplit(dst, mine, theirs []*bsp.Message, keepLow bool) {
	if !slices.IsSortedFunc(theirs, compareItems) {
		slices.SortFunc(theirs, compareItems)
	}
	if keepLow {
		i, j := 0, 0
		for k := range dst {
			if j == len(theirs) || (i < len(mine) && compareItems(mine[i], theirs[j]) <= 0) {
				dst[k] = mine[i]
				i++
			} else {
				dst[k] = theirs[j]
				j++
			}
		}
		return
	}
	i, j := len(mine)-1, len(theirs)-1
	for k := len(dst) - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && compareItems(mine[i], theirs[j]) > 0) {
			dst[k] = mine[i]
			i--
		} else {
			dst[k] = theirs[j]
			j--
		}
	}
}

// scratch returns the adapter's sorting scratch with room for n
// handles. Its contents are stale handles: callers overwrite before
// they read.
func (a *bspAdapter) scratch(n int) []*bsp.Message {
	if cap(a.sortBuf) < n {
		a.sortBuf = make([]*bsp.Message, n)
	}
	return a.sortBuf[:n]
}

// bitonicSort runs the merge-split bitonic network over the
// per-processor blocks, leaving this processor's final block in items.
// Each round exchanges whole blocks with the round's partner: r
// submissions pipelined one per G stay within the capacity bound, and
// the rounds are anchored to a globally agreed clock so that no round's
// traffic can overlap a straggler's previous round in transit — without
// the alignment, a message of round k+1 arriving while a round-k (or CB
// descend) message is still in flight would exceed small capacities and
// stall. One aligned round costs O(G*r + L). It returns the global
// quiescence instant every processor idles to before the next phase.
func (a *bspAdapter) bitonicSort(items []*bsp.Message) int64 {
	lp := a.lp
	p := lp.P()
	id := lp.ID()
	r := len(items)
	params := lp.Params()
	base := a.globalBase()
	roundBound := 2*int64(r)*params.G + params.L + 2*params.G + 6*params.O + 2*int64(r) + 2
	buf := a.scratch(2 * r)
	theirs, merged := buf[:r], buf[r:]
	for ri, round := range sortnet.BitonicSchedule(p) {
		start := base + int64(ri)*roundBound
		if lp.Now() > start {
			panic(fmt.Sprintf("core: processor %d overran bitonic round %d (now %d > start %d); roundBound too small", id, ri, lp.Now(), start))
		}
		lp.WaitUntil(start)
		var partner int
		var keepLow bool
		found := false
		for _, c := range round {
			if c.A == id {
				partner, keepLow, found = c.B, true, true
				break
			}
			if c.B == id {
				partner, keepLow, found = c.A, false, true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("core: processor %d missing from bitonic round (bug)", id))
		}
		seq := a.mb.NextSeq(tagSort)
		block := a.sendBlock(r)
		for k, item := range items {
			block[k] = logp.Message{Dst: partner, Tag: tagSort, Payload: int64(item.Dst), Aux: seq, Body: item}
		}
		lp.SendFrom(block)
		// The partner's block lands in scratch; the merge-split writes
		// the kept half beside it and copies it back over items. The
		// host merge is O(r) whenever the block arrived in send order;
		// Compute(2r) is the charged cost either way.
		got := a.recvTagSeq(tagSort, seq, r)
		for k := range got {
			theirs[k] = got[k].Body.(*bsp.Message)
		}
		lp.Compute(int64(2 * r)) // merge cost
		mergeSplit(merged, items, theirs, keepLow)
		copy(items, merged)
	}
	// Let every processor clear its last round before the summary
	// phase's point-to-point traffic begins.
	end := base + int64(sortnet.BitonicDepth(p))*roundBound
	lp.WaitUntil(end)
	return end
}

// runSummary summarizes the destination runs of one sorted block:
// the run touching the block's head, the run touching its tail, the
// maximum run length anywhere in the block, and the block size. Dummy
// entries (key -1 after normalization) never join or count.
type runSummary struct {
	size    int64
	headKey int64
	headLen int64
	maxRun  int64
	tailKey int64
	tailLen int64
}

// buildSummary computes the summary of a sorted key sequence where
// dummyKey marks entries to ignore.
func buildSummary(keys []int64, dummyKey int64) runSummary {
	s := runSummary{size: int64(len(keys)), headKey: -1, tailKey: -1}
	n := len(keys)
	if n == 0 {
		return s
	}
	i := 0
	for i < n {
		j := i
		for j < n && keys[j] == keys[i] {
			j++
		}
		runLen := int64(j - i)
		if keys[i] != dummyKey {
			if i == 0 {
				s.headKey, s.headLen = keys[i], runLen
			}
			if j == n {
				s.tailKey, s.tailLen = keys[i], runLen
			}
			if runLen > s.maxRun {
				s.maxRun = runLen
			}
		}
		i = j
	}
	return s
}

// mergeSummary combines the summaries of two adjacent blocks (a to the
// left of b).
func mergeSummary(x, y runSummary) runSummary {
	c := runSummary{size: x.size + y.size}
	c.headKey, c.headLen = x.headKey, x.headLen
	if x.headKey != -1 && x.headLen == x.size && x.headKey == y.headKey {
		c.headLen = x.size + y.headLen
	}
	c.tailKey, c.tailLen = y.tailKey, y.tailLen
	if y.tailKey != -1 && y.tailLen == y.size && y.tailKey == x.tailKey {
		c.tailLen = y.size + x.tailLen
	}
	var joined int64
	if x.tailKey != -1 && x.tailKey == y.headKey {
		joined = x.tailLen + y.headLen
	}
	c.maxRun = x.maxRun
	for _, v := range []int64{y.maxRun, joined, c.headLen, c.tailLen} {
		if v > c.maxRun {
			c.maxRun = v
		}
	}
	return c
}

// summary wire format: six fields, one message each, matched by
// Aux = k<<3 | part where k is the halving distance of the round.
const summaryParts = 6

func summaryFields(s runSummary) [summaryParts]int64 {
	return [summaryParts]int64{s.size, s.headKey, s.headLen, s.maxRun, s.tailKey, s.tailLen}
}

func summaryFromFields(f [summaryParts]int64) runSummary {
	return runSummary{size: f[0], headKey: f[1], headLen: f[2], maxRun: f[3], tailKey: f[4], tailLen: f[5]}
}

// computeS determines the maximum in-degree s of the sorted message
// sequence: each processor summarizes its block's destination runs,
// the summaries are combined left-to-right up a recursive-halving tree
// (O(log p) rounds of constant-size exchanges), and the root's maximum
// run length — the largest destination multiplicity — is broadcast.
//
// Each halving round runs in its own time window anchored at base (the
// sort phase's quiescence instant): a round's six summary words are
// submitted only inside its window and are out of flight before the
// next window opens, so no two rounds' traffic can meet at a processor
// and overflow small capacities. (An earlier receiver-paced handshake
// version stalled at capacity 1: the handshake token itself could
// collide with the previous round's in-flight words.)
func (a *bspAdapter) computeS(items []*bsp.Message, p int, base int64) int64 {
	lp := a.lp
	id := lp.ID()
	params := lp.Params()
	keys := a.keys[:0]
	for _, it := range items {
		if it.Dst == p {
			keys = append(keys, -1)
		} else {
			keys = append(keys, int64(it.Dst))
		}
	}
	a.keys = keys
	mine := buildSummary(keys, -1)
	sumBound := 12*params.G + params.L + 4*params.O + 8
	round := int64(0)
ascend:
	for k := 1; k < p; k, round = k<<1, round+1 {
		w := base + round*sumBound
		aux := func(part int) int64 { return int64(k)<<3 | int64(part) }
		switch {
		case id%(2*k) == k:
			if lp.Now() > w {
				panic(fmt.Sprintf("core: processor %d overran summary round %d (now %d > window %d)", id, round, lp.Now(), w))
			}
			lp.WaitUntil(w)
			f := summaryFields(mine)
			for part := 0; part < summaryParts; part++ {
				lp.Send(id-k, tagSumUp, f[part], aux(part))
			}
			break ascend
		case id%(2*k) == 0 && id+k < p:
			// The six words arrive in any order; each carries its part.
			// Taking the round's words as they come acquires exactly
			// the messages six part-by-part receives would.
			var f [summaryParts]int64
			got := a.recvBuf(summaryParts)
			a.mb.RecvAllWhere(func(m logp.Message) bool {
				return m.Tag == tagSumUp && m.Aux>>3 == int64(k)
			}, got)
			for i := range got {
				f[got[i].Aux&7] = got[i].Payload
			}
			lp.Compute(summaryParts)
			mine = mergeSummary(mine, summaryFromFields(f))
		}
	}
	return collective.TreeBroadcast(a.mb, tagSBcast, 0, mine.maxRun)
}
