// Package relation represents and manipulates h-relations, the
// communication patterns at the heart of both BSP and LogP routing:
// message sets in which every processor is the source of at most h and
// the destination of at most h messages.
//
// Besides the random h-relation workload, as a pair list
// (RandomRegular) and as the implicit RandomRegularStream that
// million-processor runs regenerate in place, the package provides the
// constructive counterpart of the paper's use of Hall's theorem
// (Section 4.2): DecomposeIndexed splits any h-relation into exactly h
// disjoint 1-relations (partial permutations) via bipartite edge
// colouring, which lets an h-relation be routed off-line in optimal
// 2o + G(h-1) + L time on LogP.
package relation

import "repro/internal/stats"

// Pair is a single message slot of a relation: a (source, destination)
// edge of the bipartite communication multigraph.
type Pair struct {
	Src, Dst int
}

// Relation is a multiset of message slots among P processors.
type Relation struct {
	P     int
	Pairs []Pair
}

// Degrees returns the out-degree (messages sent) and in-degree
// (messages received) of every processor.
func (r Relation) Degrees() (fanOut, fanIn []int) {
	fanOut = make([]int, r.P)
	fanIn = make([]int, r.P)
	for _, pr := range r.Pairs {
		fanOut[pr.Src]++
		fanIn[pr.Dst]++
	}
	return fanOut, fanIn
}

// H returns the degree of the relation: the maximum, over processors,
// of messages sent or received. The empty relation has degree 0.
func (r Relation) H() int {
	fanOut, fanIn := r.Degrees()
	h := 0
	for i := 0; i < r.P; i++ {
		if fanOut[i] > h {
			h = fanOut[i]
		}
		if fanIn[i] > h {
			h = fanIn[i]
		}
	}
	return h
}

// Grouping indexes a relation's pairs by source into backing arrays
// owned by the Grouping, so hot callers regrouping many relations (the
// bench harness, the stalling auditor's extension replay) stop paying
// O(p) allocations per call. The grouped views stay valid until the
// next Group call.
type Grouping struct {
	start []int32
	pairs []Pair
}

// Group rebuilds the index for r. It makes two passes (count, place)
// and allocates only when r outgrows the previous relation.
func (g *Grouping) Group(r Relation) {
	if cap(g.start) < r.P+1 {
		g.start = make([]int32, r.P+1)
	}
	g.start = g.start[:r.P+1]
	for i := range g.start {
		g.start[i] = 0
	}
	for _, pr := range r.Pairs {
		g.start[pr.Src+1]++
	}
	for i := 0; i < r.P; i++ {
		g.start[i+1] += g.start[i]
	}
	if cap(g.pairs) < len(r.Pairs) {
		g.pairs = make([]Pair, len(r.Pairs))
	}
	g.pairs = g.pairs[:len(r.Pairs)]
	// cursor through each source's slot range; start is restored by a
	// single backward shift afterwards.
	for _, pr := range r.Pairs {
		g.pairs[g.start[pr.Src]] = pr
		g.start[pr.Src]++
	}
	copy(g.start[1:], g.start[:r.P])
	g.start[0] = 0
}

// Source returns the pairs whose source is processor i, in the order
// they appear in the grouped relation. The slice aliases the Grouping's
// backing; callers must not hold it across Group calls.
func (g *Grouping) Source(i int) []Pair {
	return g.pairs[g.start[i]:g.start[i+1]:g.start[i+1]]
}

// FanOut returns processor i's out-degree in O(1).
func (g *Grouping) FanOut(i int) int {
	return int(g.start[i+1] - g.start[i])
}

// RandomRegular returns an h-relation in which every processor sends
// exactly h and receives exactly h messages: the superimposition of h
// independent random permutations, each drawn into one reused buffer.
func RandomRegular(rng *stats.RNG, p, h int) Relation {
	r := Relation{P: p, Pairs: make([]Pair, 0, p*h)}
	perm := make([]int32, p)
	for k := 0; k < h; k++ {
		rng.Perm32Into(perm, p)
		for i, d := range perm {
			r.Pairs = append(r.Pairs, Pair{Src: i, Dst: int(d)})
		}
	}
	return r
}
