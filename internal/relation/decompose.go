package relation

import "fmt"

// DecomposeIndexed splits the relation into exactly h = r.H()
// disjoint 1-relations whose union is the original multiset of pairs,
// and returns, for every pair index in r.Pairs, the index of the
// 1-relation (colour class) it belongs to. Each class is a partial
// permutation: no two of its pairs share a source or a destination.
// Routers use it to schedule the i-th pair of a known relation in
// delivery cycle classOf[i].
//
// This is the constructive form of the paper's appeal to Hall's
// theorem (Section 4.2): the bipartite communication multigraph is
// padded with dummy edges to an h-regular multigraph and then
// edge-coloured with h colours by König's alternating-path algorithm;
// colour classes with the dummies removed are the 1-relations. Routing
// the classes pipelined one per G steps realizes any off-line-known
// h-relation in the optimal 2o + G(h-1) + L LogP time.
func DecomposeIndexed(r Relation) (classOf []int, h int) {
	h = r.H()
	if h == 0 {
		return nil, 0
	}
	p := r.P

	// Pad to an h-regular bipartite multigraph. Because every
	// out-degree and in-degree deficit is matched (both sides sum to
	// p*h - len(pairs)), a greedy two-pointer pairing suffices.
	type edge struct {
		src, dst int
		real     bool
	}
	edges := make([]edge, 0, p*h)
	for _, pr := range r.Pairs {
		edges = append(edges, edge{src: pr.Src, dst: pr.Dst, real: true})
	}
	fanOut, fanIn := r.Degrees()
	u, v := 0, 0
	for {
		for u < p && fanOut[u] >= h {
			u++
		}
		if u >= p {
			break
		}
		for v < p && fanIn[v] >= h {
			v++
		}
		edges = append(edges, edge{src: u, dst: v})
		fanOut[u]++
		fanIn[v]++
	}
	if len(edges) != p*h {
		panic(fmt.Sprintf("relation: padding produced %d edges, want %d (bug)", len(edges), p*h))
	}

	// König edge colouring with h colours. left[u*h+c] / right[v*h+c]
	// hold the edge currently coloured c at that endpoint, or -1.
	color := make([]int, len(edges))
	left := make([]int, p*h)
	right := make([]int, p*h)
	for i := range left {
		left[i] = -1
		right[i] = -1
	}
	minFree := func(table []int, node int) int {
		base := node * h
		for c := 0; c < h; c++ {
			if table[base+c] == -1 {
				return c
			}
		}
		panic("relation: no free colour at a node of an h-regular graph (bug)")
	}

	var path []int // the alternating path, its backing reused per edge
	for eid := range edges {
		e := edges[eid]
		a := minFree(left, e.src)
		b := minFree(right, e.dst)
		if a != b {
			// Collect the (a,b)-alternating path that starts at
			// e.dst with colour a, then swap colours a and b along
			// it. The path cannot reach e.src carrying colour a
			// (standard König argument), so afterwards colour a is
			// free at both endpoints of e.
			path = path[:0]
			node, c, onRight := e.dst, a, true
			for {
				var cur int
				if onRight {
					cur = right[node*h+c]
				} else {
					cur = left[node*h+c]
				}
				if cur == -1 {
					break
				}
				path = append(path, cur)
				ce := edges[cur]
				if onRight {
					node = ce.src
				} else {
					node = ce.dst
				}
				onRight = !onRight
				c = a + b - c
			}
			for _, pe := range path {
				old := color[pe]
				ce := edges[pe]
				left[ce.src*h+old] = -1
				right[ce.dst*h+old] = -1
			}
			for _, pe := range path {
				old := color[pe]
				nw := a + b - old
				ce := edges[pe]
				color[pe] = nw
				left[ce.src*h+nw] = pe
				right[ce.dst*h+nw] = pe
			}
		}
		color[eid] = a
		left[e.src*h+a] = eid
		right[e.dst*h+a] = eid
	}

	// Real edges were appended first, so edge ids below len(r.Pairs)
	// index the original pairs directly.
	return color[:len(r.Pairs)], h
}
