// Package netsim routes h-relations over the point-to-point networks
// of internal/topology with a synchronous store-and-forward packet
// simulator, to measure the bandwidth and latency parameters a machine
// built on each topology can actually attain (Section 5 of the paper).
//
// Model: time advances in unit steps; each directed link transmits at
// most one packet per step out of a FIFO queue; packets follow
// precomputed shortest-path next hops (optionally through a random
// Valiant intermediate to smooth adversarial patterns). Under the
// single-port discipline a node may transmit on only one of its links
// per step (round-robin over non-empty queues), which is what
// separates the two hypercube rows of Table 1.
//
// A Router simulates the network, and one step loop drives it two
// ways: Route delivers a whole h-relation injected at step 0 and
// reports its cost, while Inject and Advance feed packets in and move
// the network one step at a time, which is how core.LogPOnNet
// co-simulates LogP on a network.
//
// The step loop is index-routed and allocation-free. New precomputes
// a one-byte routing table: for every (destination, node) pair, the
// index of the node's outgoing link toward the destination. Packets
// live in a pool on the Router, and each link's FIFO is a linked list
// threaded through that pool. A step visits only the nodes that hold
// packets (a bitset over nodes), and each of those pops the links
// marked in its 64-bit mask of non-empty links: all of them under
// multi-port, the next one in rotation under single-port. The Router
// keeps its pool and scratch across runs, so repeated use allocates
// nothing once they reach their high-water marks.
package netsim

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// simHops counts every link traversal committed by any Router in the
// process, cheaply (one atomic add per Route or Advance, not per
// hop). The benchmark harness samples it to report hops/sec.
var simHops atomic.Int64

// SimHopCount returns the process-wide number of link traversals
// simulated so far, including by machines built deep inside the
// cross-simulators.
func SimHopCount() int64 { return simHops.Load() }

const (
	// maxLinks is the largest node degree a Network supports: a node's
	// non-empty links are tracked in one uint64 mask.
	maxLinks = 64
	// here is the routing-table entry of a node for itself: the packet
	// has arrived.
	here = 0xff
)

// Network wraps a topology with routing tables.
type Network struct {
	G *topology.Graph
	// nextLink[d*n + u] is the index k, in G.Adj[u] order, of u's
	// outgoing link toward node d along a shortest path (here when
	// u == d); that link is edgeStart[u]+k. One byte per entry keeps
	// the n×n table a quarter of the size of a table of link indices.
	nextLink []uint8
	// edgeStart[u] is the index of u's first outgoing directed link;
	// u's links are edgeStart[u] .. edgeStart[u+1]-1, in G.Adj[u]
	// order.
	edgeStart []int32
	// edgeTo[e] is the head node of directed link e.
	edgeTo []int32
	// procOf[node] is the processor id hosted at node, -1 for
	// switches.
	procOf []int32
	diam   int
}

// New builds routing tables for g (BFS from every node). It panics if
// g is disconnected, asymmetric, or has a node with more than 64
// links.
func New(g *topology.Graph) *Network {
	n := g.Nodes()
	net := &Network{G: g, nextLink: make([]uint8, n*n), edgeStart: make([]int32, n+1)}
	for u, adj := range g.Adj {
		if len(adj) > maxLinks {
			panic(fmt.Sprintf("netsim: %s node %d has %d links, more than %d", g.Name, u, len(adj), maxLinks))
		}
		net.edgeStart[u+1] = net.edgeStart[u] + int32(len(adj))
	}
	// back[e] is the index in G.Adj[v] of the link v->u opposite to
	// e = u->v (the graph is undirected, so every link has a twin).
	net.edgeTo = make([]int32, 0, net.edgeStart[n])
	back := make([]uint8, net.edgeStart[n])
	for u, adj := range g.Adj {
		for k, v := range adj {
			net.edgeTo = append(net.edgeTo, int32(v))
			kb := slices.Index(g.Adj[v], u)
			if kb < 0 {
				panic(fmt.Sprintf("netsim: %s asymmetric edge %d-%d (bug)", g.Name, u, v))
			}
			back[int(net.edgeStart[u])+k] = uint8(kb)
		}
	}
	// BFS from each destination over the undirected graph; the next
	// hop toward d from a newly discovered node v is its BFS parent
	// u, reached over the link back along the discovering edge. The
	// deepest BFS level over all destinations is the diameter,
	// recorded as a free byproduct.
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue = append(queue[:0], int32(d))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for k, v := range g.Adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					net.diam = max(net.diam, int(dist[v]))
					net.nextLink[d*n+v] = back[int(net.edgeStart[u])+k]
					queue = append(queue, int32(v))
				}
			}
		}
		net.nextLink[d*n+d] = here
		if len(queue) != n {
			panic(fmt.Sprintf("netsim: %s disconnected (%d of %d nodes reachable from %d)", g.Name, len(queue), n, d))
		}
	}
	net.procOf = make([]int32, n)
	for i := range net.procOf {
		net.procOf[i] = -1
	}
	for i, node := range g.Processors {
		net.procOf[node] = int32(i)
	}
	return net
}

// Diameter returns the graph diameter, computed as a byproduct of the
// routing-table BFS (no extra all-pairs pass, unlike G.Diameter()).
func (net *Network) Diameter() int { return net.diam }

// RouteOptions configures a routing run.
type RouteOptions struct {
	// Valiant routes each packet through a uniformly random
	// intermediate node first (two-phase randomized routing),
	// trading a factor ~2 in distance for smoothed congestion.
	Valiant bool
	// Seed drives the Valiant intermediate choices.
	Seed uint64
}

// RouteResult reports one routing run.
type RouteResult struct {
	// Steps is the number of synchronous steps until the last packet
	// was delivered.
	Steps int
	// Packets is the number of packets routed.
	Packets int
	// TotalHops sums link traversals over all packets.
	TotalHops int64
	// MaxQueue is the peak FIFO depth on any directed link.
	MaxQueue int
}

// packet is one pool slot.
type packet struct {
	dst int32 // final destination node
	via int32 // Valiant intermediate (-1 when unused or passed)
	id  int32 // the injector's tag, reported in its Arrival
	// next is the slot queued behind this one on its link, or the next
	// free slot while this one is on the free list.
	next int32
}

// linkQueue is one directed link's FIFO: a list of pool slots linked
// through packet.next, from head to tail. head and tail are stale
// while n == 0.
type linkQueue struct {
	head, tail, n int32
}

// move is a packet that crossed a link in the current step, staged
// until every link has transmitted.
type move struct {
	node int32 // the link's head
	slot int32 // the packet's pool slot
}

// Arrival reports a packet reaching its destination processor.
type Arrival struct {
	ID   int32
	Dst  int // destination processor id
	Step int64
}

// Router simulates the packet network over a Network. It owns the
// per-run state: the packet pool and its free list, one linkQueue per
// directed link, each node's mask of non-empty links, the bitset of
// nodes with a non-zero mask, and the staging of each step's moves.
// One step loop drives it two ways:
//
//   - Route injects a whole relation at step 0 and steps until it is
//     delivered, reporting the cost (MeasureGL, E7 and netrun);
//   - Inject, Advance, Step and Pending feed packets in and move the
//     network one step at a time, reporting each arrival (the
//     core.LogPOnNet co-simulation, which paces injections by LogP's o
//     and G).
//
// Repeated use reaches zero steady-state allocations once the pool
// and the staging reach their high-water marks. A Router is not safe
// for concurrent use; build one per goroutine (they share the
// Network's immutable tables). After Route's step-bound panic the
// Router holds stranded packets and must be discarded.
type Router struct {
	net *Network
	// pool holds every packet. Route empties it and reserves a slot
	// per pair; Advance returns each delivered slot to the free list
	// headed by free (-1 when empty).
	pool  []packet
	free  int32
	links []linkQueue
	// out[u] has bit k set while u's link k holds packets; active has
	// bit u set while out[u] != 0.
	out    []uint64
	active []uint64
	// moves stages one step's link crossings; step compacts those
	// that reached their destination to its front.
	moves    []move
	arrivals []Arrival
	// multiPort and nodes cache net.G.MultiPort and net.G.Nodes() so
	// the per-hop path skips two pointer hops per packet.
	multiPort bool
	nodes     int
	// rng drives the Valiant intermediate choices; reseeded per run
	// so repeated Route calls allocate nothing.
	rng     stats.RNG
	clock   int // steps taken
	pending int // packets in flight

	// MaxQueue is the peak FIFO depth on any directed link and
	// TotalHops the number of link traversals, both counted since the
	// Router was built or the last Route began.
	MaxQueue  int
	TotalHops int64
}

// NewRouter returns an empty Router over net, positioned at step 0.
func (net *Network) NewRouter() *Router {
	n := net.G.Nodes()
	return &Router{
		net:       net,
		free:      -1,
		links:     make([]linkQueue, len(net.edgeTo)),
		out:       make([]uint64, n),
		active:    make([]uint64, (n+63)/64),
		multiPort: net.G.MultiPort,
		nodes:     n,
	}
}

// Step returns the number of steps taken.
func (r *Router) Step() int64 { return int64(r.clock) }

// Pending reports how many packets are in flight.
func (r *Router) Pending() int { return r.pending }

// hop returns the index of the link pk leaves node u on, or here when
// u is pk's destination, and clears pk's via once u is its Valiant
// intermediate.
func (r *Router) hop(u int32, pk *packet) uint8 {
	if pk.via == u {
		pk.via = -1
	}
	target := pk.dst
	if pk.via >= 0 {
		target = pk.via
	}
	return r.net.nextLink[int(target)*r.nodes+int(u)]
}

// inject enters pk at node u, unless u is already its destination.
func (r *Router) inject(u int32, pk packet) {
	k := r.hop(u, &pk)
	if k == here {
		return
	}
	slot := r.free
	if slot >= 0 {
		r.free = r.pool[slot].next
		r.pool[slot] = pk
	} else {
		slot = int32(len(r.pool))
		r.pool = append(r.pool, pk)
	}
	r.push(u, k, slot)
	r.pending++
}

// push enqueues pool slot on u's link k, marking the link and u busy
// and maintaining the peak-depth statistic.
func (r *Router) push(u int32, k uint8, slot int32) {
	q := &r.links[r.net.edgeStart[u]+int32(k)]
	if q.n == 0 {
		q.head = slot
		r.out[u] |= 1 << k
		r.active[u>>6] |= 1 << (uint(u) & 63)
	} else {
		r.pool[q.tail].next = slot
	}
	q.tail = slot
	q.n++
	if int(q.n) > r.MaxQueue {
		r.MaxQueue = int(q.n)
	}
}

// step moves the network forward one step: every busy link of every
// active node (under single-port, one busy link per active node)
// transmits the head of its queue, and then each packet that crossed
// is forwarded from the link's head. It returns how many packets
// reached their destination; they lead r.moves, in link order.
//
//hot:path the packet network's per-step routing loop
func (r *Router) step() int {
	net := r.net
	r.clock++
	clock := r.clock
	r.moves = r.moves[:0]
	// Walk the active nodes in index order, and each node's busy links
	// in index order, which is link index order overall. Pops clear
	// bits but pushes wait in r.moves, so no bit appears mid-walk.
	for w, word := range r.active {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			u := w<<6 + b
			lo := net.edgeStart[u]
			busy := r.out[u]
			if !r.multiPort {
				// Single-port: transmit on the first busy link at or
				// after (clock+u) mod degree, cyclically.
				s := (clock + u) % int(net.edgeStart[u+1]-lo)
				busy = 1 << (uint(bits.TrailingZeros64(bits.RotateLeft64(busy, -s))+s) & 63)
			}
			for busy != 0 {
				k := bits.TrailingZeros64(busy)
				busy &^= 1 << uint(k)
				e := lo + int32(k)
				q := &r.links[e]
				slot := q.head
				q.head = r.pool[slot].next
				if q.n--; q.n == 0 {
					r.out[u] &^= 1 << uint(k)
				}
				//lint:ignore hotloop move staging reuses r.moves via [:0]; growth is bounded by the per-step delivery high-water
				r.moves = append(r.moves, move{node: net.edgeTo[e], slot: slot})
			}
			if r.out[u] == 0 {
				r.active[w] &^= 1 << uint(b)
			}
		}
	}
	r.TotalHops += int64(len(r.moves))
	arrived := 0
	for _, mv := range r.moves {
		if k := r.hop(mv.node, &r.pool[mv.slot]); k != here {
			r.push(mv.node, k, mv.slot)
		} else {
			r.moves[arrived] = mv
			arrived++
		}
	}
	r.pending -= arrived
	return arrived
}

// Route delivers every message of rel, all injected at step 0, and
// returns the measured cost; messages to self are delivered for free.
// It restarts the step count, MaxQueue and TotalHops, and needs a
// Router with no packets in flight.
func (r *Router) Route(rel relation.Relation, opts RouteOptions) RouteResult {
	g := r.net.G
	if rel.P != g.P() {
		panic(fmt.Sprintf("netsim: relation has %d processors, network %d", rel.P, g.P()))
	}
	if r.pending != 0 {
		panic(fmt.Sprintf("netsim: Route with %d packets already in flight", r.pending))
	}
	r.rng.Reseed(opts.Seed)
	r.clock, r.MaxQueue, r.TotalHops = 0, 0, 0
	r.pool, r.free = slices.Grow(r.pool[:0], len(rel.Pairs)), -1
	for _, pr := range rel.Pairs {
		pk := packet{dst: int32(g.Processors[pr.Dst]), via: -1}
		if opts.Valiant {
			pk.via = int32(g.Processors[r.rng.Intn(rel.P)])
		}
		r.inject(int32(g.Processors[pr.Src]), pk)
	}
	res := RouteResult{Packets: len(rel.Pairs)}
	maxSteps := 10000 + 200*r.nodes + 40*len(rel.Pairs)
	for r.pending > 0 {
		if r.clock >= maxSteps {
			panic(fmt.Sprintf("netsim: %s routing exceeded %d steps with %d packets left (bug or pathological congestion)", g.Name, maxSteps, r.pending))
		}
		if r.step() > 0 {
			res.Steps = r.clock
		}
	}
	res.TotalHops, res.MaxQueue = r.TotalHops, r.MaxQueue
	simHops.Add(r.TotalHops)
	return res
}

// Inject enqueues a packet from srcProc to dstProc at the current
// step; its Arrival carries id. Packets to self are rejected (they
// never enter the network), as are processor ids outside [0, P).
func (r *Router) Inject(id int32, srcProc, dstProc int) {
	g := r.net.G
	if srcProc < 0 || srcProc >= g.P() {
		panic(fmt.Sprintf("netsim: Inject source processor %d out of range [0, %d)", srcProc, g.P()))
	}
	if dstProc < 0 || dstProc >= g.P() {
		panic(fmt.Sprintf("netsim: Inject destination processor %d out of range [0, %d)", dstProc, g.P()))
	}
	if srcProc == dstProc {
		panic("netsim: Inject to self")
	}
	r.inject(int32(g.Processors[srcProc]), packet{dst: int32(g.Processors[dstProc]), via: -1, id: id})
}

// Advance moves the network forward one step and returns the packets
// that arrived at their destinations during it, returning their pool
// slots to the free list. The returned slice is reused by the next
// Advance call; callers must consume (or copy) it before advancing
// again.
func (r *Router) Advance() []Arrival {
	arrived := r.step()
	r.arrivals = r.arrivals[:0]
	for _, mv := range r.moves[:arrived] {
		pk := &r.pool[mv.slot]
		r.arrivals = append(r.arrivals, Arrival{ID: pk.id, Dst: int(r.net.procOf[pk.dst]), Step: int64(r.clock)})
		pk.next, r.free = r.free, mv.slot
	}
	simHops.Add(int64(len(r.moves)))
	return r.arrivals
}

// Measurement is the empirically fitted cost model of a topology:
// routing a random h-relation takes about G*h + L steps.
type Measurement struct {
	Topology string
	P        int
	// Fit of mean routing steps against h.
	G, L float64
	R2   float64
	// PermTime is the mean measured time to route one random regular
	// relation at the smallest h in the measured grid — with h = 1 in
	// the grid (the usual case) that is the time of one random
	// permutation, an empirical latency/diameter proxy.
	PermTime float64
	// Points holds (h, steps) averages used for the fit.
	Points [][2]float64
}

// trialSeed derives the RNG seed of one (h, trial) measurement run
// from the base seed: golden-ratio (Weyl) increments per coordinate,
// passed through the SplitMix64 finalizer so neighboring runs land in
// uncorrelated streams. Sequential and parallel MeasureGL runs use
// the same derivation, which is what makes their outputs
// bit-identical; deriving from (h, trial) rather than the job index
// also makes each h's trials independent of the grid ordering.
func trialSeed(seed uint64, h, trial int) uint64 {
	x := seed + uint64(h)*0x9e3779b97f4a7c15 + (uint64(trial)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MeasureGL routes random regular h-relations for each h in hs
// (averaging over trials) and fits steps = G*h + L. The (h, trial)
// runs are independent — each derives its RNG stream up front via
// trialSeed — so they fan out across GOMAXPROCS workers; the result
// is bit-identical to a sequential run regardless of worker count or
// scheduling.
func (net *Network) MeasureGL(hs []int, trials int, seed uint64, valiant bool) Measurement {
	return net.measureGL(hs, trials, seed, valiant, runtime.GOMAXPROCS(0))
}

// measureGL is MeasureGL with an explicit worker count (tests pin it
// to 1 to assert parallel/sequential equivalence).
func (net *Network) measureGL(hs []int, trials int, seed uint64, valiant bool, workers int) Measurement {
	if trials < 1 {
		panic(fmt.Sprintf("netsim: MeasureGL needs trials >= 1, got %d", trials))
	}
	g := net.G
	steps := make([]float64, len(hs)*trials)
	runJob := func(rt *Router, j int) {
		h := hs[j/trials]
		rng := stats.NewRNG(trialSeed(seed, h, j%trials))
		rel := relation.RandomRegular(rng, g.P(), h)
		r := rt.Route(rel, RouteOptions{Valiant: valiant, Seed: rng.Uint64()})
		steps[j] = float64(r.Steps)
	}
	if workers > len(steps) {
		workers = len(steps)
	}
	if workers <= 1 {
		rt := net.NewRouter()
		for j := range steps {
			runJob(rt, j)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt := net.NewRouter()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(steps) {
						return
					}
					runJob(rt, j)
				}
			}()
		}
		wg.Wait()
	}

	m := Measurement{Topology: g.Name, P: g.P()}
	xs := make([]float64, 0, len(hs))
	ys := make([]float64, 0, len(hs))
	minH := 0
	for i, h := range hs {
		var sum float64
		for t := 0; t < trials; t++ {
			sum += steps[i*trials+t]
		}
		mean := sum / float64(trials)
		xs = append(xs, float64(h))
		ys = append(ys, mean)
		m.Points = append(m.Points, [2]float64{float64(h), mean})
		if minH == 0 || h < minH {
			minH = h
			m.PermTime = mean
		}
	}
	// A single-point grid cannot support a line fit; report the
	// PermTime probe alone and leave G/L/R2 zero.
	if len(xs) >= 2 {
		fit := stats.FitLine(xs, ys)
		m.G, m.L, m.R2 = fit.Slope, fit.Intercept, fit.R2
	}
	return m
}

// LogPParams derives best attainable stall-free LogP parameters
// (G*, L*) from a topology measurement, following Section 5: the LogP
// definition requires any ceil(L/G)-relation to route within L, and
// with the fitted cost T(h) = gamma*h + delta that constraint is
// L >= ceil(L/G)*gamma + delta. Choosing G* = 2*gamma leaves half of
// L for the remaining terms, and L* = 3*(gamma + delta) adds headroom
// for worst-case deviations above the mean-based fit (the definition
// is a worst-case guarantee): T(L*/G*) <= 1.5*(gamma+delta) + delta
// <= L*. This realizes the paper's G* = Theta(gamma(p)),
// L* = Theta(gamma(p) + delta(p)).
func (m Measurement) LogPParams() (gStar, lStar float64) {
	gamma := m.G
	if gamma < 1 {
		gamma = 1
	}
	delta := m.L
	if delta < 1 {
		delta = 1
	}
	gStar = 2 * gamma
	lStar = 3 * (gamma + delta)
	if lStar < gStar {
		lStar = gStar
	}
	return gStar, lStar
}
