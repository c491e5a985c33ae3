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
// the network one step at a time, which is how internal/netlogp
// co-simulates LogP on a network.
//
// The step loop is index-routed and allocation-free: Network.New
// precomputes the outgoing directed-edge index of every (node,
// destination) pair, so forwarding a packet is one table lookup and
// one ring-buffer push; a step visits only the links that actually
// hold packets (tracked by a bitset of active edges, or per-node
// non-empty counters under single-port). The Router owns the reusable
// scratch, so repeated use allocates nothing once the rings reach
// their high-water marks.
package netsim

import (
	"fmt"
	"math/bits"
	"runtime"
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

// Network wraps a topology with routing tables.
type Network struct {
	G *topology.Graph
	// nextEdge[d*n + u] is the directed-edge index of u's outgoing
	// link toward node d along a shortest path (-1 when u == d): the
	// O(1) routing table the hot loop uses instead of scanning
	// G.Adj[u]. Destination-major layout keeps the per-destination
	// BFS fill cache-local.
	nextEdge []int32
	// edgeIdx[u][k] is the directed-edge index of u's k-th outgoing
	// link; edges are numbered consecutively, so edgeIdx[u] is the
	// contiguous range [edgeStart[u], edgeStart[u+1]).
	edgeIdx [][]int32
	// edgeStart[u] is the first directed-edge index out of u (CSR
	// form of edgeIdx, one flat lookup in the hot loop).
	edgeStart []int32
	// edgeTo[e] is the head node of directed edge e.
	edgeTo []int32
	// edgeFrom[e] is the tail node of directed edge e.
	edgeFrom []int32
	// procOf[node] is the processor id hosted at node, -1 for
	// switches.
	procOf []int32
	nEdges int
	diam   int
}

// New builds routing tables for g (BFS from every node).
func New(g *topology.Graph) *Network {
	n := g.Nodes()
	nEdges := 0
	for _, a := range g.Adj {
		nEdges += len(a)
	}
	net := &Network{
		G:        g,
		nextEdge: make([]int32, n*n),
		edgeTo:   make([]int32, 0, nEdges),
		edgeFrom: make([]int32, 0, nEdges),
		edgeIdx:  make([][]int32, n),
	}
	net.edgeStart = make([]int32, n+1)
	idxBacking := make([]int32, 0, nEdges)
	for u := 0; u < n; u++ {
		lo := len(idxBacking)
		net.edgeStart[u] = int32(net.nEdges)
		for _, v := range g.Adj[u] {
			idxBacking = append(idxBacking, int32(net.nEdges))
			net.edgeTo = append(net.edgeTo, int32(v))
			net.edgeFrom = append(net.edgeFrom, int32(u))
			net.nEdges++
		}
		net.edgeIdx[u] = idxBacking[lo:len(idxBacking):len(idxBacking)]
	}
	net.edgeStart[n] = int32(net.nEdges)
	// rev[e] is the directed edge opposite to e (the graph is
	// undirected, so every u->v link has a v->u twin).
	rev := make([]int32, net.nEdges)
	for u := 0; u < n; u++ {
		for k, v := range g.Adj[u] {
			e := net.edgeIdx[u][k]
			rev[e] = -1
			for k2, w := range g.Adj[v] {
				if w == u {
					rev[e] = net.edgeIdx[v][k2]
					break
				}
			}
			if rev[e] < 0 {
				panic(fmt.Sprintf("netsim: %s asymmetric edge %d-%d (bug)", g.Name, u, v))
			}
		}
	}
	// BFS from each destination over the undirected graph; the next
	// hop toward d from a newly discovered node v is its BFS parent
	// u, reached over the reverse of the discovering edge — recorded
	// directly as the directed-edge index the hot loop routes by.
	// The deepest BFS level over all destinations is the diameter,
	// recorded as a free byproduct.
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[d] = 0
		queue = append(queue[:0], int32(d))
		seen := 1
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for k, v := range g.Adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if int(dist[v]) > net.diam {
						net.diam = int(dist[v])
					}
					// From v, the next hop toward d is u.
					net.nextEdge[d*n+int(v)] = rev[net.edgeIdx[u][k]]
					queue = append(queue, int32(v))
					seen++
				}
			}
		}
		net.nextEdge[d*n+d] = -1
		if seen != n {
			panic(fmt.Sprintf("netsim: %s disconnected (%d of %d nodes reachable from %d)", g.Name, seen, n, d))
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

type packet struct {
	dst int32 // final destination node
	via int32 // Valiant intermediate (-1 when unused or passed)
	id  int32 // the injector's tag, reported in its Arrival
}

// move is a packet that crossed a link in the current step, staged
// until every link has transmitted.
type move struct {
	node int32 // the link's head
	pk   packet
}

// Arrival reports a packet reaching its destination processor.
type Arrival struct {
	ID   int32
	Dst  int // destination processor id
	Step int64
}

// Router simulates the packet network over a Network. It owns the
// per-run scratch — one ring buffer per directed edge, the active-link
// tracking, and the staging of each step's moves — and one step loop
// drives it two ways:
//
//   - Route injects a whole relation at step 0 and steps until it is
//     delivered, reporting the cost (MeasureGL, E7 and netrun);
//   - Inject, Advance, Step and Pending feed packets in and move the
//     network one step at a time, reporting each arrival (the
//     netlogp co-simulation, which paces injections by LogP's o and G).
//
// Repeated use reaches zero steady-state allocations once the rings
// reach their high-water marks. A Router is not safe for concurrent
// use; build one per goroutine (they share the Network's immutable
// tables). After Route's step-bound panic the Router holds stranded
// packets and must be discarded.
type Router struct {
	net    *Network
	queues []ring[packet]
	// Multi-port: bitset of edges with non-empty queues.
	activeEdge bitset
	// Single-port: per-node count of non-empty outgoing queues plus
	// the bitset of nodes with at least one.
	nodeCnt    []int32
	activeNode bitset
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
	r := &Router{net: net, queues: make([]ring[packet], net.nEdges), multiPort: net.G.MultiPort, nodes: n}
	if net.G.MultiPort {
		r.activeEdge = newBitset(net.nEdges)
	} else {
		r.nodeCnt = make([]int32, n)
		r.activeNode = newBitset(n)
	}
	return r
}

// Step returns the number of steps taken.
func (r *Router) Step() int64 { return int64(r.clock) }

// Pending reports how many packets are in flight.
func (r *Router) Pending() int { return r.pending }

// hop returns the link pk leaves node u on, or -1 when u is pk's
// destination, and pk with via cleared once u is its Valiant
// intermediate.
func (r *Router) hop(u int32, pk packet) (int32, packet) {
	if pk.via == u {
		pk.via = -1
	}
	target := pk.dst
	if pk.via >= 0 {
		target = pk.via
	} else if u == pk.dst {
		return -1, pk
	}
	return r.net.nextEdge[int(target)*r.nodes+int(u)], pk
}

// inject enters pk at node u, unless u is already its destination.
func (r *Router) inject(u int32, pk packet) {
	if e, pk := r.hop(u, pk); e >= 0 {
		r.push(e, pk)
		r.pending++
	}
}

// push enqueues pk on directed edge e, maintaining the active-link
// tracking and the peak-depth statistic.
func (r *Router) push(e int32, pk packet) {
	q := &r.queues[e]
	if q.n == 0 {
		if r.multiPort {
			r.activeEdge.set(int(e))
		} else {
			u := r.net.edgeFrom[e]
			if r.nodeCnt[u] == 0 {
				r.activeNode.set(int(u))
			}
			r.nodeCnt[u]++
		}
	}
	q.push(pk)
	if q.n > r.MaxQueue {
		r.MaxQueue = q.n
	}
}

// pop dequeues the head of edge e, clearing the active-link tracking
// when the queue drains.
func (r *Router) pop(e int32) packet {
	q := &r.queues[e]
	pk := q.pop()
	if q.n == 0 {
		if r.multiPort {
			r.activeEdge.clear(int(e))
		} else {
			u := r.net.edgeFrom[e]
			r.nodeCnt[u]--
			if r.nodeCnt[u] == 0 {
				r.activeNode.clear(int(u))
			}
		}
	}
	return pk
}

// step moves the network forward one step: every active link (under
// single-port, one link of every active node) transmits the head of
// its queue, and then each packet that crossed is forwarded from the
// link's head. It returns how many packets reached their destination;
// they lead r.moves, in link order.
//
//hot:path the packet network's per-step routing loop
func (r *Router) step() int {
	net := r.net
	r.clock++
	clock := r.clock
	r.moves = r.moves[:0]
	if r.multiPort {
		// Walk the active-edge bitset in index order (matching a full
		// scan); pops may clear bits at the current position but
		// pushes wait in r.moves, so no new bits appear mid-walk.
		for w := 0; w < len(r.activeEdge); w++ {
			word := r.activeEdge[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				e := int32(w<<6 + b)
				//lint:ignore hotloop move staging reuses r.moves via [:0]; growth is bounded by the per-step delivery high-water
				r.moves = append(r.moves, move{node: net.edgeTo[e], pk: r.pop(e)})
			}
		}
	} else {
		// Single-port: each active node transmits on one link,
		// rotating the starting link each step for fairness.
		for w := 0; w < len(r.activeNode); w++ {
			word := r.activeNode[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				u := w<<6 + b
				lo := int(net.edgeStart[u])
				deg := int(net.edgeStart[u+1]) - lo
				start := (clock + u) % deg
				for k := 0; k < deg; k++ {
					j := start + k
					if j >= deg {
						j -= deg
					}
					e := int32(lo + j)
					if r.queues[e].n == 0 {
						continue
					}
					//lint:ignore hotloop move staging reuses r.moves via [:0]; growth is bounded by the per-step delivery high-water
					r.moves = append(r.moves, move{node: net.edgeTo[e], pk: r.pop(e)})
					break
				}
			}
		}
	}
	r.TotalHops += int64(len(r.moves))
	arrived := 0
	for _, mv := range r.moves {
		if e, pk := r.hop(mv.node, mv.pk); e >= 0 {
			r.push(e, pk)
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
// that arrived at their destinations during it. The returned slice is
// reused by the next Advance call; callers must consume (or copy) it
// before advancing again.
func (r *Router) Advance() []Arrival {
	arrived := r.step()
	r.arrivals = r.arrivals[:0]
	for _, mv := range r.moves[:arrived] {
		r.arrivals = append(r.arrivals, Arrival{ID: mv.pk.id, Dst: int(r.net.procOf[mv.pk.dst]), Step: int64(r.clock)})
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
