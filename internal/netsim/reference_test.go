package netsim_test

import (
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// refNet is an independent reference for netsim.Router, written from
// the routing model alone and sharing no code with it: one slice FIFO
// per directed link, a scan of every link in index order each step,
// single-port rotation by a linear scan from (step + node) mod degree,
// and next hops from its own BFS over G.Adj (the BFS parent toward the
// destination, neighbours visited in Adj order).
type refNet struct {
	g *topology.Graph
	// Node u's directed links are linkStart[u] .. linkStart[u+1]-1, in
	// G.Adj[u] order; link e leads to node linkTo[e].
	linkStart []int
	linkTo    []int
	// next[d][u] is the link u forwards on toward node d.
	next   [][]int
	queues [][]refPacket
	procOf map[int]int

	clock    int
	pending  int
	hops     int64
	maxQueue int
}

type refPacket struct {
	id, dst, via int // via is -1 when unused or passed
}

func newRefNet(g *topology.Graph, clock int) *refNet {
	n := len(g.Adj)
	rn := &refNet{g: g, linkStart: make([]int, n+1), next: make([][]int, n), procOf: map[int]int{}, clock: clock}
	for u, adj := range g.Adj {
		rn.linkStart[u+1] = rn.linkStart[u] + len(adj)
		rn.linkTo = append(rn.linkTo, adj...)
	}
	rn.queues = make([][]refPacket, len(rn.linkTo))
	for d := range rn.next {
		rn.next[d] = make([]int, n)
		seen := make([]bool, n)
		seen[d] = true
		for queue := []int{d}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, v := range g.Adj[u] {
				if seen[v] {
					continue
				}
				seen[v] = true
				queue = append(queue, v)
				for k, w := range g.Adj[v] {
					if w == u {
						rn.next[d][v] = rn.linkStart[v] + k
						break
					}
				}
			}
		}
	}
	for proc, node := range g.Processors {
		rn.procOf[node] = proc
	}
	return rn
}

// forward hands pk, now at node u, to its next link and reports false,
// or reports true when u is its destination.
func (rn *refNet) forward(u int, pk refPacket) bool {
	if pk.via == u {
		pk.via = -1
	}
	target := pk.dst
	if pk.via >= 0 {
		target = pk.via
	}
	if target == u {
		return true
	}
	e := rn.next[target][u]
	rn.queues[e] = append(rn.queues[e], pk)
	rn.maxQueue = max(rn.maxQueue, len(rn.queues[e]))
	return false
}

func (rn *refNet) inject(u int, pk refPacket) {
	if !rn.forward(u, pk) {
		rn.pending++
	}
}

// step advances one step and returns the arrivals, in link order.
func (rn *refNet) step() []netsim.Arrival {
	rn.clock++
	type crossing struct {
		node int
		pk   refPacket
	}
	var crossed []crossing
	take := func(e int) {
		crossed = append(crossed, crossing{rn.linkTo[e], rn.queues[e][0]})
		rn.queues[e] = rn.queues[e][1:]
	}
	if rn.g.MultiPort {
		for e := range rn.queues {
			if len(rn.queues[e]) > 0 {
				take(e)
			}
		}
	} else {
		for u, adj := range rn.g.Adj {
			for j := range adj {
				e := rn.linkStart[u] + (rn.clock+u+j)%len(adj)
				if len(rn.queues[e]) > 0 {
					take(e)
					break
				}
			}
		}
	}
	rn.hops += int64(len(crossed))
	var arrivals []netsim.Arrival
	for _, c := range crossed {
		if rn.forward(c.node, c.pk) {
			arrivals = append(arrivals, netsim.Arrival{ID: int32(c.pk.id), Dst: rn.procOf[c.pk.dst], Step: int64(rn.clock)})
			rn.pending--
		}
	}
	return arrivals
}

// refRoute is Router.Route on the reference: every pair injected at
// step 0 (Valiant intermediates drawn in pair order from opts.Seed),
// then stepped until delivered.
func refRoute(t *testing.T, g *topology.Graph, rel relation.Relation, opts netsim.RouteOptions) netsim.RouteResult {
	rn := newRefNet(g, 0)
	rng := stats.NewRNG(opts.Seed)
	for _, pr := range rel.Pairs {
		pk := refPacket{dst: g.Processors[pr.Dst], via: -1}
		if opts.Valiant {
			pk.via = g.Processors[rng.Intn(rel.P)]
		}
		rn.inject(g.Processors[pr.Src], pk)
	}
	res := netsim.RouteResult{Packets: len(rel.Pairs)}
	for rn.pending > 0 {
		if rn.clock > 100000 {
			t.Fatalf("reference Route did not finish")
		}
		if len(rn.step()) > 0 {
			res.Steps = rn.clock
		}
	}
	res.TotalHops, res.MaxQueue = rn.hops, rn.maxQueue
	return res
}

// fuzzGraph builds a small instance of one of the Table 1 constructors;
// each family has sizes above 64 nodes, where the Router's active-node
// bitset spans several words.
func fuzzGraph(family, size uint8) *topology.Graph {
	pick := func(sizes ...int) int { return sizes[int(size)%len(sizes)] }
	switch family % 8 {
	case 0:
		return topology.Array(pick(2, 3, 4, 5, 9), 2, size&8 != 0)
	case 1:
		return topology.Array(pick(2, 3, 5), 3, size&8 != 0)
	case 2:
		return topology.Hypercube(pick(2, 4, 8, 16, 128), true)
	case 3:
		return topology.Hypercube(pick(2, 4, 8, 16, 128), false)
	case 4:
		return topology.Butterfly(pick(3, 4, 5))
	case 5:
		return topology.CCC(pick(3, 4, 5))
	case 6:
		return topology.ShuffleExchange(pick(2, 3, 4, 7))
	default:
		return topology.MeshOfTrees(pick(2, 4, 8))
	}
}

// FuzzRouterMatchesReference checks the Router against refNet on small
// graphs from every Table 1 constructor, under either port discipline,
// with and without Valiant routing. One Router is driven three times:
// Inject/Advance on a staggered schedule (every arrival's ID, Dst and
// Step, then TotalHops and MaxQueue), Route of a random h-relation
// (the whole RouteResult), and Inject/Advance again on the reused
// Router.
func FuzzRouterMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(4), false, false, uint8(2), uint64(1), uint8(0))
	f.Add(uint8(3), uint8(4), false, true, uint8(3), uint64(2), uint8(4))
	f.Add(uint8(2), uint8(4), true, false, uint8(1), uint64(3), uint8(2))
	f.Add(uint8(5), uint8(2), false, true, uint8(0), uint64(4), uint8(6))
	f.Add(uint8(7), uint8(2), true, false, uint8(2), uint64(5), uint8(3))
	f.Add(uint8(4), uint8(2), true, true, uint8(1), uint64(6), uint8(1))
	f.Add(uint8(6), uint8(3), false, false, uint8(3), uint64(7), uint8(5))
	f.Add(uint8(1), uint8(2), true, true, uint8(1), uint64(8), uint8(0))
	f.Add(uint8(4), uint8(0), false, true, uint8(3), uint64(9), uint8(7))
	f.Add(uint8(3), uint8(1), true, false, uint8(2), uint64(10), uint8(2))
	f.Fuzz(func(t *testing.T, family, size uint8, flipPort, valiant bool, h uint8, seed uint64, stagger uint8) {
		g := fuzzGraph(family, size)
		if flipPort {
			g.MultiPort = !g.MultiPort
		}
		rng := stats.NewRNG(seed)
		hh := 1 + int(h%4)
		// Pair i of an Inject/Advance phase enters at step i*rate/8 of
		// the phase: all at once when rate is 0, about one a step at 7.
		rate := int(stagger % 8)
		rt := netsim.New(g).NewRouter()
		advance := func(phase string) {
			rel := relation.RandomRegular(rng, g.P(), hh)
			hops0, max0 := rt.TotalHops, rt.MaxQueue
			rn := newRefNet(g, int(rt.Step()))
			start, next := int(rt.Step()), 0
			inject := func() {
				for ; next < len(rel.Pairs) && next*rate/8 <= int(rt.Step())-start; next++ {
					if pr := rel.Pairs[next]; pr.Src != pr.Dst {
						rt.Inject(int32(next), pr.Src, pr.Dst)
						rn.inject(g.Processors[pr.Src], refPacket{id: next, dst: g.Processors[pr.Dst], via: -1})
					}
				}
			}
			for inject(); rn.pending > 0 || next < len(rel.Pairs); inject() {
				got, want := rt.Advance(), rn.step()
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s: step %d arrivals %v, reference %v", phase, g.Name, rt.Step(), got, want)
				}
				if rt.Pending() != rn.pending {
					t.Fatalf("%s %s: step %d pending %d, reference %d", phase, g.Name, rt.Step(), rt.Pending(), rn.pending)
				}
			}
			if hops := rt.TotalHops - hops0; hops != rn.hops {
				t.Fatalf("%s %s: TotalHops %d, reference %d", phase, g.Name, hops, rn.hops)
			}
			if want := max(max0, rn.maxQueue); rt.MaxQueue != want {
				t.Fatalf("%s %s: MaxQueue %d, reference %d", phase, g.Name, rt.MaxQueue, want)
			}
		}
		advance("Inject/Advance")
		rel := relation.RandomRegular(rng, g.P(), hh)
		opts := netsim.RouteOptions{Valiant: valiant, Seed: rng.Uint64()}
		if got, want := rt.Route(rel, opts), refRoute(t, g, rel, opts); got != want {
			t.Fatalf("Route %s valiant=%v: %+v, reference %+v", g.Name, valiant, got, want)
		}
		advance("Inject/Advance after Route")
	})
}
