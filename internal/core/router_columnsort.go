package core

import (
	"fmt"
	"slices"

	"repro/internal/bsp"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/sortnet"
)

// SortAlgo selects the oblivious sorting algorithm inside the
// deterministic router (Theorem 2, Step 2). The paper uses AKS for
// small per-processor loads r and Cubesort for large r; this
// implementation substitutes Batcher bitonic and Leighton columnsort
// respectively (see DESIGN.md).
type SortAlgo uint8

const (
	// SortAuto picks columnsort when r is already in its validity
	// regime (r on the order of 2(p-1)^2 or more, where padding is
	// cheap) and bitonic otherwise.
	SortAuto SortAlgo = iota
	// SortBitonic forces the bitonic network (requires a power-of-two
	// processor count).
	SortBitonic
	// SortColumnsort forces columnsort, padding r up to the validity
	// threshold if necessary; it works for every processor count.
	SortColumnsort
)

func (s SortAlgo) String() string {
	switch s {
	case SortAuto:
		return "auto"
	case SortBitonic:
		return "bitonic"
	case SortColumnsort:
		return "columnsort"
	default:
		return fmt.Sprintf("SortAlgo(%d)", uint8(s))
	}
}

// columnsortPaddedR returns the smallest r' >= r satisfying
// Leighton's validity conditions for s = p columns: p | r', r' even,
// r' >= 2(p-1)^2.
func columnsortPaddedR(r, p int) int {
	if p == 1 {
		if r < 1 {
			return 1
		}
		return r
	}
	base := 2 * (p - 1) * (p - 1)
	if r > base {
		base = r
	}
	unit := p
	if p%2 != 0 {
		unit = 2 * p
	}
	rp := (base + unit - 1) / unit * unit
	if rp == 0 {
		rp = unit
	}
	if !sortnet.ColumnsortValid(rp, p) {
		panic(fmt.Sprintf("core: padded r=%d invalid for columnsort with p=%d (bug)", rp, p))
	}
	return rp
}

// columnSched precomputes, for one (p, r') shape, the Hall
// decomposition of the transpose and untranspose redistributions:
// send[src][idx] gives the destination, destination slot, and delivery
// cycle of element idx at processor src. The patterns are
// input-independent, so the schedule is computed once per shape and
// shared (the paper's off-line routing premise for known relations).
type columnSched struct {
	r          int
	transpose  [][]schedHop
	untranspos [][]schedHop
}

type schedHop struct {
	dst    int
	dstIdx int
	cycle  int
}

func buildColumnSched(p, r int) *columnSched {
	build := func(dest func(col, idx int) (int, int)) [][]schedHop {
		rel := relation.Relation{P: p, Pairs: make([]relation.Pair, 0, p*r)}
		hops := make([][]schedHop, p)
		for src := 0; src < p; src++ {
			hops[src] = make([]schedHop, r)
			for idx := 0; idx < r; idx++ {
				dc, di := dest(src, idx)
				hops[src][idx] = schedHop{dst: dc, dstIdx: di}
				rel.Pairs = append(rel.Pairs, relation.Pair{Src: src, Dst: dc})
			}
		}
		classes, h := relation.DecomposeIndexed(rel)
		if h != r {
			panic(fmt.Sprintf("core: transpose decomposition has %d classes, want %d (bug)", h, r))
		}
		k := 0
		for src := 0; src < p; src++ {
			for idx := 0; idx < r; idx++ {
				hops[src][idx].cycle = classes[k]
				k++
			}
		}
		return hops
	}
	return &columnSched{
		r:          r,
		transpose:  build(func(c, i int) (int, int) { return sortnet.TransposeDest(r, p, c, i) }),
		untranspos: build(func(c, i int) (int, int) { return sortnet.UntransposeDest(r, p, c, i) }),
	}
}

func (sim *bspSim) columnSchedFor(p, r int) *columnSched {
	if sim.colScheds == nil {
		sim.colScheds = map[int]*columnSched{}
	}
	if cs := sim.colScheds[r]; cs != nil {
		return cs
	}
	cs := buildColumnSched(p, r)
	sim.colScheds[r] = cs
	return cs
}

// columnsortSort is the large-r branch of the deterministic router's
// Step 2: Leighton columnsort over the per-processor blocks, realized
// as three scheduled exchanges (transpose, untranspose, boundary
// merge) interleaved with local sorts, all anchored to a global base
// time so every phase's traffic is disjoint in flight. Like
// bitonicSort it moves message handles. It returns this processor's
// final block of length columnsortPaddedR(r, p) — leaving block j
// holding global ranks [j*r', (j+1)*r') — together with the global
// quiescence instant every processor idles to before the next phase.
func (a *bspAdapter) columnsortSort(items []*bsp.Message) ([]*bsp.Message, int64) {
	lp := a.lp
	p := lp.P()
	id := lp.ID()
	params := lp.Params()
	rp := columnsortPaddedR(len(items), p)
	for len(items) < rp {
		items = append(items, &a.dummy)
	}
	if p == 1 {
		slices.SortFunc(items, compareItems)
		return items, lp.Now()
	}
	cs := a.sim.columnSchedFor(p, rp)
	sortCost := sortnet.SeqSortCost(rp, p+1)
	exFull := 2*int64(rp)*params.G + params.L + 2*params.G + 6*params.O + 4
	exHalf := int64(rp)*params.G + params.L + 2*params.G + 6*params.O + 4
	margin := int64(8)

	// Phase 1: local sort (before the base so its cost overlaps the
	// base agreement of slower processors).
	lp.Compute(sortCost)
	slices.SortFunc(items, compareItems)

	base := a.globalBase()
	t1 := base + exFull + sortCost + margin
	t2 := t1 + exFull + sortCost + margin
	t3 := t2 + exHalf + int64(rp) + margin

	// Phase 2: transpose into scratch; phase 3: local sort.
	buf := a.scratch(2 * rp)
	moved := buf[:rp]
	a.runExchange(moved, items, cs.transpose[id], base)
	lp.Compute(sortCost)
	slices.SortFunc(moved, compareItems)

	// Phase 4: untranspose back into items; phase 5: local sort.
	a.checkPhase(t1, "untranspose")
	lp.WaitUntil(t1)
	a.runExchange(items, moved, cs.untranspos[id], t1)
	lp.Compute(sortCost)
	slices.SortFunc(items, compareItems)

	// Phases 6-8 collapse to the boundary merge: send the bottom
	// half right, the right neighbor merges the straddling window (its
	// two halves are sorted blocks) and returns the lower half.
	// Both transfers place items by their slot index (the payload), so
	// each arrives in send order under every delivery policy.
	a.checkPhase(t2, "boundary-A")
	lp.WaitUntil(t2)
	half := rp / 2
	seqA := a.mb.NextSeq(tagNeigh)
	if id < p-1 {
		block := a.sendBlock(half)
		for k := range block {
			block[k] = logp.Message{Dst: id + 1, Tag: tagNeigh, Payload: int64(k), Aux: seqA, Body: items[half+k]}
		}
		a.sendOnGrid(block, t2)
	}
	theirs, window := buf[:half], buf[half:half+rp]
	if id > 0 {
		got := a.recvTagSeq(tagNeigh, seqA, half)
		for i := range got {
			theirs[got[i].Payload] = got[i].Body.(*bsp.Message)
		}
		lp.Compute(int64(rp))
		mergeSplit(window, items[:half], theirs, true)
		copy(items[:half], window[half:]) // my new top half
	}
	a.checkPhase(t3, "boundary-B")
	lp.WaitUntil(t3)
	seqB := a.mb.NextSeq(tagNeigh)
	if id > 0 {
		block := a.sendBlock(half)
		for k := range block {
			block[k] = logp.Message{Dst: id - 1, Tag: tagNeigh, Payload: int64(k), Aux: seqB, Body: window[k]}
		}
		a.sendOnGrid(block, t3)
	}
	if id < p-1 {
		// The returned lower half of the neighbor's merged window is
		// sorted already; Compute charges the merge it completes.
		got := a.recvTagSeq(tagNeigh, seqB, half)
		for i := range got {
			items[half+int(got[i].Payload)] = got[i].Body.(*bsp.Message)
		}
		lp.Compute(int64(rp))
	}
	end := t3 + exHalf + int64(rp) + margin
	a.checkPhase(end, "quiesce")
	lp.WaitUntil(end)
	return items, end
}

// checkPhase panics if the processor reaches phase's start instant
// late: the schedule's time bounds were too small.
func (a *bspAdapter) checkPhase(start int64, phase string) {
	if a.lp.Now() > start {
		panic(fmt.Sprintf("core: processor %d overran columnsort phase %s (now %d > start %d); bounds too small",
			a.lp.ID(), phase, a.lp.Now(), start))
	}
}

// sendOnGrid submits block[c] in cycle c's grid slot base + (c+1)*G,
// as a WaitUntil(slot - o) before each SendBody would, skipping the
// cycles whose entry has Dst -1. Within a run of consecutive cycles
// the gap alone keeps each submission on or after its slot: a Send
// submits at least G after the previous one, which was on or after
// the previous slot. So only a run's first Send waits for its slot,
// and the run goes out by one SendFrom, submitted at the same instants
// (each Send commits earlier, so message ids may be numbered in
// another order).
func (a *bspAdapter) sendOnGrid(block []logp.Message, base int64) {
	params := a.lp.Params()
	for c := 0; c < len(block); {
		if block[c].Dst < 0 {
			c++
			continue
		}
		end := c + 1
		for end < len(block) && block[end].Dst >= 0 {
			end++
		}
		a.lp.WaitUntil(base + int64(c+1)*params.G - params.O)
		a.lp.SendFrom(block[c:end])
		c = end
	}
}

// runExchange realizes one precomputed redistribution of the r items
// into dst: element idx is transmitted in its Hall-decomposition cycle
// and lands at its destination slot. Every processor sends and
// receives exactly r items.
func (a *bspAdapter) runExchange(dst, items []*bsp.Message, hops []schedHop, base int64) {
	id := a.lp.ID()
	// A nil slot of dst is one not yet filled; a cycle's block entry
	// keeps Dst -1 if no element goes out in it.
	clear(dst)
	block := a.sendBlock(len(items))
	for c := range block {
		block[c] = logp.Message{Dst: -1}
	}
	seq := a.mb.NextSeq(tagSort)
	expect := len(items)
	for idx, hop := range hops {
		if hop.dst == id {
			dst[hop.dstIdx] = items[idx]
			expect--
			continue
		}
		if block[hop.cycle].Dst != -1 {
			panic("core: two elements share an exchange cycle (bug)")
		}
		block[hop.cycle] = logp.Message{Dst: hop.dst, Tag: tagSort, Payload: int64(hop.dstIdx), Aux: seq, Body: items[idx]}
	}
	a.sendOnGrid(block, base)
	got := a.recvTagSeq(tagSort, seq, expect)
	for i := range got {
		slot := got[i].Payload
		if dst[slot] != nil {
			panic("core: exchange slot collision (bug)")
		}
		dst[slot] = got[i].Body.(*bsp.Message)
	}
}
