package bench

import (
	"sort"

	"repro/internal/bsp"
	"repro/internal/logp"
	"repro/internal/netrun"
	"repro/internal/stats"
)

// E9RadixSkew reproduces the paper's Section 6 observation about the
// LogP Radixsort of Culler et al.: the bucket-redistribution relation
// is data-dependent, and skewed keys drive it past the capacity
// constraint, producing stall costs "that cannot be estimated reliably"
// from the program text.
func E9RadixSkew(cfg Config) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Section 6: radix-sort bucket exchange vs key skew (capacity violations)",
		Columns: []string{"p", "keys", "skew%", "T-meas", "stall-events", "stall-cycles", "maxBuffer"},
		Notes:   []string{"the same program, same key count: only the key distribution changes the relation's degree"},
	}
	pCount := 16
	perProc := 32
	if !cfg.Quick {
		pCount = 32
		perProc = 64
	}
	params := logp.Params{P: pCount, L: 16, O: 1, G: 4}
	const keyRange = 1 << 16
	for _, skew := range []int{0, 50, 90, 99} {
		keys := skewedKeys(cfg.Seed, pCount, perProc, skew, keyRange)
		res, err := logp.NewMachine(params, logp.WithDeliveryPolicy(logp.DeliverMinLatency), logp.WithSeed(cfg.Seed)).
			Run(bucketSortProgram(keys, keyRange))
		must(err)
		t.AddRow(pCount, pCount*perProc, skew, res.Time, res.StallEvents, res.StallCycles, res.MaxBufferDepth)
	}
	return t
}

// skewedKeys draws the E9/E17 key sets: perProc keys per processor in
// [0, keyRange), with skew percent of them concentrated in the first
// 1/p-th of the range (processor 0's bucket). The rng is seeded
// seed+skew, exactly the E9 historical draw, so the golden tables are
// unchanged by the extraction.
func skewedKeys(seed uint64, p, perProc, skew, keyRange int) [][]int64 {
	rng := stats.NewRNG(seed + uint64(skew))
	keys := make([][]int64, p)
	for i := range keys {
		keys[i] = make([]int64, perProc)
		for j := range keys[i] {
			if rng.Intn(100) < skew {
				keys[i][j] = int64(rng.Uint64n(uint64(keyRange) / uint64(p)))
			} else {
				keys[i][j] = int64(rng.Uint64n(uint64(keyRange)))
			}
		}
	}
	return keys
}

// bucketSortProgram is the one-pass MSD bucket redistribution: count,
// exchange counts, blast keys to their bucket owners, sort locally.
func bucketSortProgram(keys [][]int64, keyRange int) logp.Program {
	return func(pr logp.Proc) {
		id := pr.ID()
		n := pr.P()
		bucketOf := func(k int64) int {
			b := int(k * int64(n) / int64(keyRange))
			if b >= n {
				b = n - 1
			}
			return b
		}
		counts := make([]int64, n)
		for _, k := range keys[id] {
			counts[bucketOf(k)]++
		}
		pr.Compute(int64(len(keys[id])))
		for j := 0; j < n; j++ {
			if j != id {
				pr.Send(j, 1, counts[j], 0)
			}
		}
		incoming := counts[id]
		for j := 0; j < n-1; j++ {
			incoming += pr.Recv().Payload
		}
		local := make([]int64, 0, incoming)
		for _, k := range keys[id] {
			b := bucketOf(k)
			if b == id {
				local = append(local, k)
				continue
			}
			pr.Send(b, 2, k, 0)
		}
		for int64(len(local)) < incoming {
			local = append(local, pr.Recv().Payload)
		}
		sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
		pr.Compute(int64(len(local)) * 6)
	}
}

// bucketSortScript is bucketSortProgram in logp.Script form — the
// sorting-based workload ported to the coroutine-free scale engines
// (the ROADMAP remainder from the scale-mode PR). Next issues exactly
// the operation sequence the Program form's Proc calls produce, so
// RunScript(newBucketSortScript(keys, r)) is byte-identical to
// Run(bucketSortProgram(keys, r)) on the native engine and to the
// Theorem 1 cycle replay on both forms; the golden tests pin all of
// them against each other, ExtensionTime included (the skewed relation
// overloads cycles, so the sorting-based stalling extension is charged
// on both paths).
//
// All per-processor state lives in id-indexed slots (the procshare
// discipline of the logp.Script contract) and the per-processor bucket
// counts are precomputed at construction, so Next stays O(1) amortized
// per operation and allocation-free.
type bucketSortScript struct {
	p        int
	keyRange int
	keys     [][]int64
	counts   [][]int64 // counts[id][j]: processor id's keys bound for bucket j

	phase    []int8  // per-proc program counter (see Next)
	idx      []int32 // per-proc loop index within the phase
	incoming []int64 // counts[id][id] plus the received per-source counts
	kept     []int64 // keys kept locally during the scan
	got      []int64 // data messages received so far
}

func newBucketSortScript(keys [][]int64, keyRange int) *bucketSortScript {
	p := len(keys)
	s := &bucketSortScript{
		p: p, keyRange: keyRange, keys: keys,
		counts:   make([][]int64, p),
		phase:    make([]int8, p),
		idx:      make([]int32, p),
		incoming: make([]int64, p),
		kept:     make([]int64, p),
		got:      make([]int64, p),
	}
	for id := range keys {
		c := make([]int64, p)
		for _, k := range keys[id] {
			c[s.bucketOf(k)]++
		}
		s.counts[id] = c
	}
	return s
}

// bucketOf mirrors bucketSortProgram's bucket function.
func (s *bucketSortScript) bucketOf(k int64) int {
	b := int(k * int64(s.p) / int64(s.keyRange))
	if b >= s.p {
		b = s.p - 1
	}
	return b
}

// Active reports all processors active: every one sends its counts
// before its first Recv, so none satisfies the passivity contract.
func (s *bucketSortScript) Active(int) bool { return true }

// Next is the per-operation transition the scripted engines drive; it must stay O(1) and allocation-free.
//
//hot:path per-event dynamic-dispatch target: its own mark, since hotness does not propagate through interfaces
func (s *bucketSortScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	for {
		switch s.phase[id] {
		case 0: // the local counting pass, charged as one Compute
			s.phase[id] = 1
			return logp.ScriptOp{Kind: logp.ScriptCompute, N: int64(len(s.keys[id]))}

		case 1: // send my per-bucket counts to every other processor
			if int(s.idx[id]) == id {
				s.idx[id]++
			}
			if j := int(s.idx[id]); j < s.p {
				s.idx[id]++
				return logp.ScriptOp{Kind: logp.ScriptSend, Dst: j, Tag: 1, Payload: s.counts[id][j]}
			}
			s.incoming[id] = s.counts[id][id]
			s.idx[id] = 0
			if s.p > 1 {
				s.phase[id] = 2
				return logp.ScriptOp{Kind: logp.ScriptRecv}
			}
			s.phase[id] = 3

		case 2: // a count Recv completed; prev carries the payload
			s.incoming[id] += prev.Msg.Payload
			s.idx[id]++
			if int(s.idx[id]) < s.p-1 {
				return logp.ScriptOp{Kind: logp.ScriptRecv}
			}
			s.phase[id] = 3
			s.idx[id] = 0

		case 3: // scan my keys: keep the local ones, send the rest
			keys := s.keys[id]
			for int(s.idx[id]) < len(keys) {
				k := keys[s.idx[id]]
				s.idx[id]++
				b := s.bucketOf(k)
				if b == id {
					s.kept[id]++
					continue
				}
				return logp.ScriptOp{Kind: logp.ScriptSend, Dst: b, Tag: 2, Payload: k}
			}
			s.phase[id] = 4

		case 4: // receive until the local bucket holds `incoming` keys
			if s.kept[id]+s.got[id] < s.incoming[id] {
				s.phase[id] = 5
				return logp.ScriptOp{Kind: logp.ScriptRecv}
			}
			s.phase[id] = 6

		case 5: // a data Recv completed
			s.got[id]++
			s.phase[id] = 4

		case 6: // the final local sort, charged as in the Program form
			s.phase[id] = 7
			return logp.ScriptOp{Kind: logp.ScriptCompute, N: s.incoming[id] * 6}

		default:
			return logp.ScriptOp{Kind: logp.ScriptHalt}
		}
	}
}

// E10Portability runs one BSP program, unmodified, on every Table 1
// topology via the packet-level netrun machine, and compares the
// measured time against the abstract prediction w + g*h + l using the
// topology's fitted parameters — the paper's portability thesis made
// end-to-end: performance moves with (gamma, delta), correctness never
// does.
func E10Portability(cfg Config) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Portability: one BSP program on every Table 1 topology (measured vs g,l prediction)",
		Columns: []string{"topology", "p", "T-meas", "T-pred", "meas/pred", "supersteps"},
		Notes:   []string{"prediction = sum(w + g_fit*h + l_fit) with the topology's fitted parameters"},
	}
	target := 64
	hs := []int{1, 2, 4, 8}
	if !cfg.Quick {
		target = 256
		hs = []int{1, 2, 4, 8, 16}
	}
	graphs := table1Graphs(target)
	// The portable program: a three-superstep neighborhood exchange
	// with data-dependent forwarding. p differs per topology, so the
	// program only uses pr.P().
	prog := func(pr bsp.Proc) {
		n := pr.P()
		id := pr.ID()
		for k := 1; k <= 4; k++ {
			pr.Send((id+k)%n, 0, int64(id+k), 0)
		}
		pr.Compute(16)
		pr.Sync()
		var sum int64
		for {
			m, ok := pr.Recv()
			if !ok {
				break
			}
			sum += m.Payload
		}
		pr.Send(int(sum)%n, 1, sum, 0)
		pr.Sync()
		for {
			if _, ok := pr.Recv(); !ok {
				break
			}
		}
	}
	for _, g := range graphs {
		net := cfg.network(g)
		meas := net.MeasureGL(hs, 3, cfg.Seed, false)
		m := netrun.NewMachine(net)
		res, err := m.Run(prog)
		must(err)
		pred := res.Predict(int64(meas.G+0.5), int64(meas.L+0.5))
		ratio := 0.0
		if pred > 0 {
			ratio = float64(res.Time) / float64(pred)
		}
		t.AddRow(g.Name, g.P(), res.Time, pred, ratio, res.Supersteps)
	}
	return t
}
