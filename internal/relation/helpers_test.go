package relation

import "repro/internal/stats"

// Oracles and inputs for this package's tests. Decompose and BySource
// are the plain views that DecomposeIndexed and Grouping are checked
// against; the generators build the irregular relations those checks
// run on.

// Decompose is the class-list view of DecomposeIndexed: the h
// 1-relations themselves, nil for the empty relation.
func Decompose(r Relation) [][]Pair {
	classOf, h := DecomposeIndexed(r)
	if h == 0 {
		return nil
	}
	classes := make([][]Pair, h)
	for i, c := range classOf {
		classes[c] = append(classes[c], r.Pairs[i])
	}
	return classes
}

// BySource groups the pairs by source processor. The groups share one
// backing array, sized by a counting pass, so the call allocates O(1)
// slices however large the relation.
func (r Relation) BySource() [][]Pair {
	counts := make([]int, r.P)
	for _, pr := range r.Pairs {
		counts[pr.Src]++
	}
	backing := make([]Pair, 0, len(r.Pairs))
	out := make([][]Pair, r.P)
	for i := 0; i < r.P; i++ {
		out[i] = backing[len(backing) : len(backing) : len(backing)+counts[i]]
		backing = backing[:len(backing)+counts[i]]
	}
	for _, pr := range r.Pairs {
		out[pr.Src] = append(out[pr.Src], pr)
	}
	return out
}

// RandomIrregular returns a relation in which every processor sends
// exactly h messages to independent uniform destinations; in-degrees
// fluctuate around h, so the relation's degree H() is typically
// somewhat above h.
func RandomIrregular(rng *stats.RNG, p, h int) Relation {
	r := Relation{P: p, Pairs: make([]Pair, 0, p*h)}
	for i := 0; i < p; i++ {
		for k := 0; k < h; k++ {
			r.Pairs = append(r.Pairs, Pair{Src: i, Dst: rng.Intn(p)})
		}
	}
	return r
}

// HotSpot returns a relation in which h distinct processors (cyclically
// following target) each send one message to target: the canonical
// stalling workload of Section 2.2. h is clamped to p-1.
func HotSpot(p, h, target int) Relation {
	if h >= p {
		h = p - 1
	}
	r := Relation{P: p, Pairs: make([]Pair, 0, h)}
	for k := 1; k <= h; k++ {
		r.Pairs = append(r.Pairs, Pair{Src: (target + k) % p, Dst: target})
	}
	return r
}

// AllToAll returns the (p-1)-relation in which every processor sends
// one message to every other processor.
func AllToAll(p int) Relation {
	r := Relation{P: p, Pairs: make([]Pair, 0, p*(p-1))}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				r.Pairs = append(r.Pairs, Pair{Src: i, Dst: j})
			}
		}
	}
	return r
}
