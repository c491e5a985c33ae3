package netsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// NextHop reads the routing table: the neighbor of u on a shortest
// path to d (u itself when u == d).
func (net *Network) NextHop(u, d int) int {
	k := net.nextLink[d*net.G.Nodes()+u]
	if k == here {
		return u
	}
	return net.G.Adj[u][k]
}

// permutationRelation returns the 1-relation in which processor i sends
// one message to perm[i].
func permutationRelation(perm []int32) relation.Relation {
	r := relation.Relation{P: len(perm)}
	for i, d := range perm {
		r.Pairs = append(r.Pairs, relation.Pair{Src: i, Dst: int(d)})
	}
	return r
}

// transposeRelation returns the side² processor matrix transposition:
// processor (i,j) sends one message to (j,i).
func transposeRelation(side int) relation.Relation {
	r := relation.Relation{P: side * side}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if i != j {
				r.Pairs = append(r.Pairs, relation.Pair{Src: i*side + j, Dst: j*side + i})
			}
		}
	}
	return r
}

func TestNextHopShortensDistance(t *testing.T) {
	for _, g := range goldenGraphs() {
		net := New(g)
		// The routing BFS's diameter must match topology's own
		// all-pairs BFS, and walking next hops from any node must
		// reach any destination in at most Diameter steps.
		diam := g.Diameter()
		if net.Diameter() != diam {
			t.Fatalf("%s: Network.Diameter %d, Graph.Diameter %d", g.Name, net.Diameter(), diam)
		}
		for u := 0; u < g.Nodes(); u++ {
			for d := 0; d < g.Nodes(); d++ {
				cur := u
				for steps := 0; cur != d; steps++ {
					if steps > diam {
						t.Fatalf("%s: next-hop walk %d->%d exceeded diameter", g.Name, u, d)
					}
					cur = net.NextHop(cur, d)
				}
			}
		}
	}
}

func TestRouteSinglePermutationMesh(t *testing.T) {
	g := topology.Array(4, 2, false)
	net := New(g)
	perm := make([]int32, 16)
	stats.NewRNG(1).Perm32Into(perm, 16)
	rel := permutationRelation(perm)
	res := net.NewRouter().Route(rel, RouteOptions{})
	if res.Packets != 16 {
		t.Fatalf("packets = %d", res.Packets)
	}
	// A permutation on a 4x4 mesh completes within a small multiple
	// of the diameter.
	if res.Steps < 1 || res.Steps > 8*g.Diameter() {
		t.Fatalf("steps = %d, diameter %d", res.Steps, g.Diameter())
	}
}

func TestRouteDeliversEverything(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Array(4, 2, true),
		topology.Hypercube(16, true),
		topology.Hypercube(16, false),
		topology.Butterfly(3),
		topology.CCC(3),
		topology.ShuffleExchange(4),
		topology.MeshOfTrees(4),
	}
	rng := stats.NewRNG(7)
	for _, g := range graphs {
		net := New(g)
		for _, h := range []int{1, 3} {
			rel := relation.RandomRegular(rng, g.P(), h)
			res := net.NewRouter().Route(rel, RouteOptions{Seed: 5})
			if res.Packets != len(rel.Pairs) {
				t.Fatalf("%s h=%d: %d packets", g.Name, h, res.Packets)
			}
			if res.Steps <= 0 {
				t.Fatalf("%s h=%d: steps %d", g.Name, h, res.Steps)
			}
			if res.TotalHops < int64(res.Packets) {
				// Every packet with src != dst needs >= 1 hop;
				// random regular relations rarely have fixed
				// points only.
				t.Fatalf("%s h=%d: hops %d < packets %d", g.Name, h, res.TotalHops, res.Packets)
			}
		}
	}
}

func TestRouteSelfMessagesFree(t *testing.T) {
	g := topology.Hypercube(8, true)
	net := New(g)
	rel := relation.Relation{P: 8, Pairs: []relation.Pair{{Src: 3, Dst: 3}}}
	res := net.NewRouter().Route(rel, RouteOptions{})
	if res.Steps != 0 || res.TotalHops != 0 {
		t.Fatalf("self-delivery cost: %+v", res)
	}
}

func TestValiantRoutesCorrectly(t *testing.T) {
	g := topology.Hypercube(16, false)
	net := New(g)
	rng := stats.NewRNG(3)
	rel := relation.RandomRegular(rng, 16, 4)
	res := net.NewRouter().Route(rel, RouteOptions{Valiant: true, Seed: 11})
	if res.Packets != len(rel.Pairs) || res.Steps <= 0 {
		t.Fatalf("valiant routing failed: %+v", res)
	}
}

func TestValiantSmoothsAdversarialPattern(t *testing.T) {
	// Bit-reversal-like traffic on a mesh congests dimension-order
	// deterministic routing; Valiant should not be catastrophically
	// worse and typically helps on worst cases. Here we only assert
	// both complete and produce sane step counts.
	g := topology.Array(8, 2, false)
	net := New(g)
	rel := transposeRelation(8)
	det := net.NewRouter().Route(rel, RouteOptions{})
	val := net.NewRouter().Route(rel, RouteOptions{Valiant: true, Seed: 9})
	if det.Steps <= 0 || val.Steps <= 0 {
		t.Fatalf("det %d val %d", det.Steps, val.Steps)
	}
}

func TestSinglePortSlowerThanMultiPort(t *testing.T) {
	rng := stats.NewRNG(17)
	h := 8
	rel := relation.RandomRegular(rng, 32, h)
	multi := New(topology.Hypercube(32, true)).NewRouter().Route(rel, RouteOptions{})
	single := New(topology.Hypercube(32, false)).NewRouter().Route(rel, RouteOptions{})
	if single.Steps <= multi.Steps {
		t.Fatalf("single-port (%d) not slower than multi-port (%d)", single.Steps, multi.Steps)
	}
}

func TestRouteDeterministicGivenSeed(t *testing.T) {
	g := topology.Butterfly(3)
	net := New(g)
	rng := stats.NewRNG(23)
	rel := relation.RandomRegular(rng, g.P(), 2)
	a := net.NewRouter().Route(rel, RouteOptions{Valiant: true, Seed: 4})
	b := net.NewRouter().Route(rel, RouteOptions{Valiant: true, Seed: 4})
	if a != b {
		t.Fatalf("nondeterministic routing: %+v vs %+v", a, b)
	}
}

func TestMeasureGLMesh(t *testing.T) {
	g := topology.Array(4, 2, true)
	m := New(g).MeasureGL([]int{1, 2, 4, 8, 16}, 3, 99, false)
	if m.G <= 0 {
		t.Fatalf("fitted G = %v", m.G)
	}
	if m.R2 < 0.9 {
		t.Fatalf("fit R2 = %v too poor: %+v", m.R2, m.Points)
	}
	// On a 4x4 torus with p=16 and bisection 16, gamma is Theta(1)
	// to Theta(sqrt p); the fitted slope must be in a sane band.
	if m.G > 10 {
		t.Fatalf("fitted G = %v implausibly large", m.G)
	}
}

func TestMeasureGLOrdersTopologies(t *testing.T) {
	// The multi-port hypercube must show a smaller fitted slope than
	// the 2d mesh at comparable p (Table 1's gamma ordering).
	hs := []int{1, 2, 4, 8}
	hc := New(topology.Hypercube(64, true)).MeasureGL(hs, 2, 1, false)
	mesh := New(topology.Array(8, 2, false)).MeasureGL(hs, 2, 1, false)
	if hc.G >= mesh.G {
		t.Fatalf("hypercube slope %v not below mesh slope %v", hc.G, mesh.G)
	}
}

func TestLogPParamsSatisfyCapacityRequirement(t *testing.T) {
	m := Measurement{G: 2, L: 10}
	gs, ls := m.LogPParams()
	if gs != 4 || ls != 36 {
		t.Fatalf("G*, L* = %v, %v; want 4, 36", gs, ls)
	}
	// The defining requirement: a ceil(L*/G*)-relation must route
	// within L* under the fitted cost model gamma*h + delta.
	c := ls / gs
	if cost := m.G*c + m.L; cost > ls {
		t.Fatalf("capacity relation costs %v > L* = %v", cost, ls)
	}
	// L* = Theta(gamma + delta): both parameters positive and the
	// ratio to gamma+delta bounded.
	if ls < m.G+m.L || ls > 4*(m.G+m.L) {
		t.Fatalf("L* = %v not Theta(gamma+delta) = %v", ls, m.G+m.L)
	}
}

func TestLogPParamsEmpiricalRequirement(t *testing.T) {
	// End-to-end on a real topology: route a ceil(L*/G*)-relation
	// and verify it completes within about L*.
	g := topology.Hypercube(32, true)
	m := New(g).MeasureGL([]int{1, 2, 4, 8}, 3, 5, false)
	gs, ls := m.LogPParams()
	c := int(ls / gs)
	if c < 1 {
		c = 1
	}
	rng := stats.NewRNG(31)
	net := New(g)
	var worst int
	for trial := 0; trial < 3; trial++ {
		rel := relation.RandomRegular(rng, g.P(), c)
		if r := net.NewRouter().Route(rel, RouteOptions{Seed: rng.Uint64()}); r.Steps > worst {
			worst = r.Steps
		}
	}
	if float64(worst) > 2*ls {
		t.Fatalf("capacity relation took %d steps, far above L* = %v", worst, ls)
	}
}

func TestRoutePanicsOnWrongP(t *testing.T) {
	g := topology.Hypercube(8, true)
	net := New(g)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched relation")
		}
	}()
	net.NewRouter().Route(relation.Relation{P: 4}, RouteOptions{})
}

func TestRouterInjectMidFlight(t *testing.T) {
	// Injections at later steps join the network smoothly.
	net := New(topology.Hypercube(8, true))
	rt := net.NewRouter()
	rt.Inject(1, 0, 7)
	rt.Advance()
	rt.Inject(2, 1, 6)
	total := 0
	for rt.Pending() > 0 {
		total += len(rt.Advance())
	}
	if total != 2 {
		t.Fatalf("delivered %d, want 2", total)
	}
}

func TestRouterSelfInjectPanics(t *testing.T) {
	net := New(topology.Hypercube(4, true))
	rt := net.NewRouter()
	defer func() {
		if recover() == nil {
			t.Fatal("self-injection did not panic")
		}
	}()
	rt.Inject(1, 2, 2)
}

// star returns the graph of a hub (node 0) linked to leaves 1..leaves,
// every node a processor.
func star(leaves int, multiPort bool) *topology.Graph {
	g := &topology.Graph{Name: fmt.Sprintf("star(%d)", leaves+1), Adj: make([][]int, leaves+1), MultiPort: multiPort}
	for v := 0; v <= leaves; v++ {
		g.Processors = append(g.Processors, v)
		if v > 0 {
			g.Adj[0] = append(g.Adj[0], v)
			g.Adj[v] = []int{0}
		}
	}
	return g
}

// TestNewLinkLimit: a node's busy links live in one 64-bit mask, so
// New accepts a hub with 64 links, which then routes under both port
// disciplines, and panics on one with 65.
func TestNewLinkLimit(t *testing.T) {
	for _, multiPort := range []bool{true, false} {
		g := star(64, multiPort)
		rel := relation.RandomRegular(stats.NewRNG(3), g.P(), 2)
		res := New(g).NewRouter().Route(rel, RouteOptions{})
		if res.Packets != len(rel.Pairs) || res.Steps <= 0 {
			t.Fatalf("%s multiPort=%v: %+v", g.Name, multiPort, res)
		}
	}
	defer func() {
		if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "netsim:") {
			t.Fatalf("New on a node with 65 links: panic %v, want a netsim: panic", msg)
		}
	}()
	New(star(65, false))
}
