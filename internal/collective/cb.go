package collective

import "repro/internal/logp"

// Op is an associative combining operator on machine words.
type Op func(a, b int64) int64

// Standard operators for CombineBroadcast.
var (
	OpAnd Op = func(a, b int64) int64 { return a & b }
	OpOr  Op = func(a, b int64) int64 { return a | b }
	OpSum Op = func(a, b int64) int64 { return a + b }
	OpMax Op = func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin Op = func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
)

// TreeArity returns the fan-in of the paper's CB tree:
// max(2, ceil(L/G)).
func TreeArity(params logp.Params) int {
	d := int(params.Capacity())
	if d < 2 {
		d = 2
	}
	return d
}

// treeFamily describes processor id's place in the complete d-ary CB
// tree laid out in BFS order: node i has parent (i-1)/d and children
// d*i+1 .. d*i+d, of which those below p exist. It returns the
// children as the id range [lo, hi), empty for a leaf.
func treeFamily(id, p, d int) (parent, lo, hi int) {
	parent = -1
	if id > 0 {
		parent = (id - 1) / d
	}
	return parent, min(d*id+1, p), min(d*id+d+1, p)
}

// CombineBroadcast runs the paper's CB primitive: it combines the x
// values of all processors under op and returns the combined value to
// every processor. The collective uses two tags, tag (ascend) and
// tag+1 (descend), stamping messages with a per-tag sequence number so
// repeated instances cannot interfere.
//
// Running time is O(L * log p / log(1 + ceil(L/G))) as in Proposition
// 2; for ceil(L/G) = 1 the binary tree uses the paper's schedule where
// left children transmit at even multiples of L and right children at
// odd multiples, which keeps the execution stall-free despite the
// capacity bound of one message in transit per destination.
func CombineBroadcast(mb *Mailbox, tag int32, x int64, op Op) int64 {
	return CombineBroadcastArity(mb, tag, x, op, TreeArity(mb.Proc.Params()))
}

// CombineBroadcastArity is CombineBroadcast with an explicit tree
// fan-in, used by the arity ablation to quantify the
// log(1 + ceil(L/G)) denominator of Proposition 2. Arities above the
// capacity can stall; the paper's choice TreeArity never does.
func CombineBroadcastArity(mb *Mailbox, tag int32, x int64, op Op, d int) int64 {
	p := mb.Proc
	params := p.Params()
	n := p.P()
	if n == 1 {
		return x
	}
	if d < 2 {
		d = 2
	}
	capacity := params.Capacity()
	seq := mb.NextSeq(tag)
	mb.NextSeq(tag + 1) // keep the descend tag's counter aligned
	parent, lo, hi := treeFamily(p.ID(), n, d)

	// Ascend: combine the subtree.
	acc := x
	for range hi - lo {
		m := mb.RecvTagSeq(tag, seq)
		acc = op(acc, m.Payload)
		p.Compute(1) // one combining operation
	}
	if parent >= 0 {
		if capacity == 1 && d == 2 {
			// Paper's schedule for ceil(L/G)=1: in the binary
			// BFS layout, odd ids are left children and even ids
			// (>0) right children; left transmit at even
			// multiples of L, right at odd multiples.
			L := params.L
			period := 2 * L
			offset := int64(0)
			if p.ID()%2 == 0 {
				offset = L
			}
			// A just-completed acquisition holds the combined
			// per-processor gap until r+G, which would push a
			// submission computed from Now()+o past its slot; idle
			// G-o first so Now()+o is the true earliest submission
			// instant.
			p.WaitUntil(p.Now() + params.G - params.O)
			now := p.Now() + params.O // earliest submission instant
			k := (now - offset + period - 1) / period
			if k < 0 {
				k = 0
			}
			slot := k*period + offset
			p.WaitUntil(slot - params.O)
		}
		p.Send(parent, tag, acc, seq)
		down := mb.RecvTagSeq(tag+1, seq)
		acc = down.Payload
	}
	// Descend: broadcast the result to the subtree.
	for c := lo; c < hi; c++ {
		p.Send(c, tag+1, acc, seq)
	}
	return acc
}

// TreeBroadcast sends root's value to every processor along the CB
// tree (descend phase only) and returns it. It uses one tag.
func TreeBroadcast(mb *Mailbox, tag int32, root int, x int64) int64 {
	p := mb.Proc
	n := p.P()
	if n == 1 {
		return x
	}
	d := TreeArity(p.Params())
	seq := mb.NextSeq(tag)
	// Re-index processors so that root plays node 0: processor id
	// acts as tree node (id - root) mod n.
	node := ((p.ID()-root)%n + n) % n
	parent, lo, hi := treeFamily(node, n, d)
	val := x
	if parent >= 0 {
		m := mb.RecvTagSeq(tag, seq)
		val = m.Payload
	}
	for c := lo; c < hi; c++ {
		p.Send((c+root)%n, tag, val, seq)
	}
	return val
}

// CBTimeBound returns the paper's upper bound for CB running time,
// 3*(L+o) * ceil(log2 p / log2(1 + ceil(L/G))), used by tests and the
// E5 experiment as the reference curve.
func CBTimeBound(params logp.Params, p int) int64 {
	if p <= 1 {
		return 0
	}
	num := log2Ceil(p)
	den := log2Floor(1 + int(params.Capacity()))
	if den < 1 {
		den = 1
	}
	levels := (num + den - 1) / den
	return 3 * (params.L + params.O) * int64(levels)
}

func log2Ceil(n int) int {
	lg := 0
	v := 1
	for v < n {
		v <<= 1
		lg++
	}
	return lg
}

func log2Floor(n int) int {
	lg := 0
	for n > 1 {
		n >>= 1
		lg++
	}
	return lg
}
