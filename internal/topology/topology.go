// Package topology builds the point-to-point interconnection networks
// of Table 1 of "BSP vs LogP" — d-dimensional arrays, hypercubes
// (single- and multi-port), butterflies, cube-connected cycles,
// shuffle-exchange graphs, and the mesh-of-trees (the paper's pruned
// butterfly entry shares its parameters) — together with their
// analytic bandwidth and latency parameters gamma(p) and delta(p).
//
// A Graph lists every node's neighbors; Processors identifies the
// subset of nodes that host processors (for the mesh-of-trees only the
// leaves do; internal tree nodes are switches). The packet-level
// simulator in internal/netsim routes h-relations over these graphs to
// measure attainable g and l empirically, which experiment E1 places
// next to the analytic columns.
package topology

import (
	"fmt"
	"math"
)

// Graph is an undirected interconnection network.
type Graph struct {
	// Name identifies the topology instance, e.g. "hypercube(64)".
	Name string
	// Adj lists each node's neighbors; the graph is undirected, so
	// v appears in Adj[u] iff u appears in Adj[v].
	Adj [][]int
	// Processors lists the nodes that host processors, in processor
	// id order. For most topologies this is every node.
	Processors []int
	// MultiPort reports whether a node may use all its links in one
	// step (multi-port model) or only one (single-port).
	MultiPort bool
	// AnalyticGamma is the paper's gamma(p): the per-processor
	// inverse-bandwidth factor of optimal h-relation routing time
	// gamma(p)*h + delta(p).
	AnalyticGamma float64
	// AnalyticDelta is the paper's delta(p): the network diameter
	// term of the routing time.
	AnalyticDelta float64
}

// P returns the number of processors.
func (g *Graph) P() int { return len(g.Processors) }

// Nodes returns the number of nodes (processors plus switches).
func (g *Graph) Nodes() int { return len(g.Adj) }

// Diameter computes the exact graph diameter by BFS from every node.
// It panics on a disconnected graph. Only tests call it: netsim's
// tests use it as the check, independent of netsim's own BFS, on the
// routing tables and on netsim.Network.Diameter, and core's LogPOnNet
// tests size L by it.
func (g *Graph) Diameter() int {
	n := len(g.Adj)
	dist := make([]int, n)
	queue := make([]int, 0, n)
	diam := 0
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		seen := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if dist[v] > diam {
						diam = dist[v]
					}
					queue = append(queue, v)
					seen++
				}
			}
		}
		if seen != n {
			panic(fmt.Sprintf("topology: %s is disconnected", g.Name))
		}
	}
	return diam
}

// validate checks adjacency symmetry and self-loop freedom; builders
// call it before returning.
func (g *Graph) validate() *Graph {
	for u, nbrs := range g.Adj {
		seen := map[int]bool{}
		for _, v := range nbrs {
			if v == u {
				panic(fmt.Sprintf("topology: %s has a self-loop at %d", g.Name, u))
			}
			if v < 0 || v >= len(g.Adj) {
				panic(fmt.Sprintf("topology: %s edge %d-%d out of range", g.Name, u, v))
			}
			if seen[v] {
				panic(fmt.Sprintf("topology: %s duplicate edge %d-%d", g.Name, u, v))
			}
			seen[v] = true
			found := false
			for _, w := range g.Adj[v] {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				panic(fmt.Sprintf("topology: %s asymmetric edge %d-%d", g.Name, u, v))
			}
		}
	}
	return g
}

func addEdge(adj [][]int, u, v int) {
	adj[u] = append(adj[u], v)
	adj[v] = append(adj[v], u)
}

func identityProcessors(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

func log2int(p int) int {
	lg := 0
	for v := 1; v < p; v <<= 1 {
		lg++
	}
	return lg
}

// Array builds the d-dimensional array (torus when wrap is true) with
// side^d processors. Table 1: gamma = delta = Theta(p^(1/d)) for
// constant d.
func Array(side, d int, wrap bool) *Graph {
	if side < 2 || d < 1 {
		panic(fmt.Sprintf("topology: Array(%d, %d) needs side >= 2, d >= 1", side, d))
	}
	n := 1
	for i := 0; i < d; i++ {
		n *= side
	}
	adj := make([][]int, n)
	stride := 1
	for dim := 0; dim < d; dim++ {
		for u := 0; u < n; u++ {
			coord := (u / stride) % side
			if coord+1 < side {
				addEdge(adj, u, u+stride)
			} else if wrap && side > 2 {
				addEdge(adj, u, u-(side-1)*stride)
			}
		}
		stride *= side
	}
	kind := "mesh"
	if wrap {
		kind = "torus"
	}
	g := &Graph{
		Name:          fmt.Sprintf("%dd-%s(%d)", d, kind, n),
		Adj:           adj,
		Processors:    identityProcessors(n),
		MultiPort:     false,
		AnalyticGamma: math.Pow(float64(n), 1/float64(d)),
		AnalyticDelta: math.Pow(float64(n), 1/float64(d)),
	}
	return g.validate()
}

// Hypercube builds the log2(p)-dimensional hypercube on p processors
// (p a power of two). Table 1: multi-port gamma = Theta(1),
// single-port gamma = Theta(log p); delta = Theta(log p) in both.
func Hypercube(p int, multiPort bool) *Graph {
	if p < 2 || p&(p-1) != 0 {
		panic(fmt.Sprintf("topology: Hypercube(%d) needs a power of two >= 2", p))
	}
	lg := log2int(p)
	adj := make([][]int, p)
	for u := 0; u < p; u++ {
		for b := 0; b < lg; b++ {
			v := u ^ (1 << b)
			if v > u {
				addEdge(adj, u, v)
			}
		}
	}
	port := "single-port"
	gamma := float64(lg)
	if multiPort {
		port = "multi-port"
		gamma = 1
	}
	g := &Graph{
		Name:          fmt.Sprintf("hypercube-%s(%d)", port, p),
		Adj:           adj,
		Processors:    identityProcessors(p),
		MultiPort:     multiPort,
		AnalyticGamma: gamma,
		AnalyticDelta: float64(lg),
	}
	return g.validate()
}

// Butterfly builds the lg-dimensional wrapped butterfly: lg * 2^lg
// nodes arranged in lg columns of 2^lg rows, with straight and cross
// edges between consecutive columns (mod lg). Every node hosts a
// processor. Table 1: gamma = delta = Theta(log p).
func Butterfly(lg int) *Graph {
	if lg < 2 {
		panic(fmt.Sprintf("topology: Butterfly(%d) needs dimension >= 2", lg))
	}
	rows := 1 << lg
	n := lg * rows
	id := func(level, row int) int { return level*rows + row }
	adj := make([][]int, n)
	for level := 0; level < lg; level++ {
		next := (level + 1) % lg
		for row := 0; row < rows; row++ {
			u := id(level, row)
			straight := id(next, row)
			cross := id(next, row^(1<<level))
			addEdge(adj, u, straight)
			addEdge(adj, u, cross)
		}
	}
	g := &Graph{
		Name:          fmt.Sprintf("butterfly(%d)", n),
		Adj:           adj,
		Processors:    identityProcessors(n),
		MultiPort:     false,
		AnalyticGamma: float64(lg),
		AnalyticDelta: float64(lg),
	}
	return g.validate()
}

// CCC builds the lg-dimensional cube-connected cycles: each hypercube
// node becomes a cycle of lg nodes, each handling one dimension.
// Table 1: gamma = delta = Theta(log p).
func CCC(lg int) *Graph {
	if lg < 3 {
		panic(fmt.Sprintf("topology: CCC(%d) needs dimension >= 3", lg))
	}
	corners := 1 << lg
	n := lg * corners
	id := func(corner, pos int) int { return corner*lg + pos }
	adj := make([][]int, n)
	for corner := 0; corner < corners; corner++ {
		for pos := 0; pos < lg; pos++ {
			u := id(corner, pos)
			// Cycle edges: (pos, pos+1) for pos < lg-1, plus the
			// wrap edge (lg-1, 0).
			if pos+1 < lg {
				addEdge(adj, u, id(corner, pos+1))
			} else {
				addEdge(adj, u, id(corner, 0))
			}
			// Hypercube edge along dimension pos.
			w := id(corner^(1<<pos), pos)
			if w > u {
				addEdge(adj, u, w)
			}
		}
	}
	g := &Graph{
		Name:          fmt.Sprintf("ccc(%d)", n),
		Adj:           adj,
		Processors:    identityProcessors(n),
		MultiPort:     false,
		AnalyticGamma: float64(lg),
		AnalyticDelta: float64(lg),
	}
	return g.validate()
}

// ShuffleExchange builds the lg-dimensional shuffle-exchange graph on
// 2^lg processors: exchange edges toggle the low bit, shuffle edges
// rotate the address left. Table 1: gamma = delta = Theta(log p).
func ShuffleExchange(lg int) *Graph {
	if lg < 2 {
		panic(fmt.Sprintf("topology: ShuffleExchange(%d) needs dimension >= 2", lg))
	}
	n := 1 << lg
	adj := make([][]int, n)
	seen := func(u, v int) bool {
		for _, w := range adj[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for u := 0; u < n; u++ {
		// Exchange edge.
		v := u ^ 1
		if v > u && !seen(u, v) {
			addEdge(adj, u, v)
		}
		// Shuffle edge (left rotation).
		s := ((u << 1) | (u >> (lg - 1))) & (n - 1)
		if s != u && !seen(u, s) {
			addEdge(adj, u, s)
		}
	}
	g := &Graph{
		Name:          fmt.Sprintf("shuffle-exchange(%d)", n),
		Adj:           adj,
		Processors:    identityProcessors(n),
		MultiPort:     false,
		AnalyticGamma: float64(lg),
		AnalyticDelta: float64(lg),
	}
	return g.validate()
}

// MeshOfTrees builds the side x side mesh of trees: a grid of leaves,
// with a complete binary tree over every row and every column; only
// the leaves host processors. It realizes the paper's pruned
// butterfly / mesh-of-trees row of Table 1:
// gamma = Theta(sqrt(p)), delta = Theta(log p). side must be a power
// of two.
func MeshOfTrees(side int) *Graph {
	if side < 2 || side&(side-1) != 0 {
		panic(fmt.Sprintf("topology: MeshOfTrees(%d) needs a power-of-two side >= 2", side))
	}
	p := side * side
	// Nodes: p leaves, then per row a binary tree with side-1
	// internal nodes, then per column likewise.
	internal := side - 1
	n := p + 2*side*internal
	adj := make([][]int, n)
	leaf := func(r, c int) int { return r*side + c }
	// Build one tree over the given leaf ids; internal nodes are
	// allocated from baseNode. Internal node k (1-based heap index
	// k = 1..side-1) has children 2k and 2k+1 in heap order where
	// indices >= side refer to leaves[idx-side].
	buildTree := func(leaves []int, baseNode int) {
		node := func(k int) int {
			if k >= side {
				return leaves[k-side]
			}
			return baseNode + k - 1
		}
		for k := 1; k < side; k++ {
			addEdge(adj, node(k), node(2*k))
			addEdge(adj, node(k), node(2*k+1))
		}
	}
	next := p
	for r := 0; r < side; r++ {
		leaves := make([]int, side)
		for c := 0; c < side; c++ {
			leaves[c] = leaf(r, c)
		}
		buildTree(leaves, next)
		next += internal
	}
	for c := 0; c < side; c++ {
		leaves := make([]int, side)
		for r := 0; r < side; r++ {
			leaves[r] = leaf(r, c)
		}
		buildTree(leaves, next)
		next += internal
	}
	g := &Graph{
		Name:          fmt.Sprintf("mesh-of-trees(%d)", p),
		Adj:           adj,
		Processors:    identityProcessors(p),
		MultiPort:     false,
		AnalyticGamma: float64(side),
		AnalyticDelta: 4 * math.Log2(float64(side)),
	}
	return g.validate()
}
