// Package bsputil is a library of bulk-synchronous collective
// operations in the style of the BSPlib proposal the paper cites
// (Goudreau et al., "A proposal for the BSP worldwide standard
// library"): broadcast, all-reduce, prefix sums and total exchange.
//
// Every collective is written against bsp.Proc, so the same call runs
// on the native BSP machine and — through internal/core's Theorem 2/3
// cross-simulation — on a LogP machine. All processors must invoke a
// collective together: each call consumes a fixed number of supersteps
// (documented per function) and internally calls Sync.
//
// Collectives use the caller-supplied tag for their traffic; the
// caller must not send unrelated messages with that tag in the same
// supersteps.
package bsputil

import (
	"fmt"

	"repro/internal/bsp"
)

// Op is an associative combining operator.
type Op func(a, b int64) int64

// Standard operators.
var (
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

// Broadcast sends root's data to every processor in one superstep by
// direct sends: h = n*(p-1) at the root. Returns the data (the
// original slice at the root, a copy elsewhere). Cost: 1 superstep,
// h = len(data)*(p-1).
func Broadcast(p bsp.Proc, tag int32, root int, data []int64) []int64 {
	n := p.P()
	if p.ID() == root {
		for dst := 0; dst < n; dst++ {
			if dst == root {
				continue
			}
			for i, v := range data {
				p.Send(dst, tag, v, int64(i))
			}
		}
	}
	p.Sync()
	if p.ID() == root {
		return data
	}
	return collectIndexed(p, tag)
}

type indexed struct {
	idx int64
	val int64
}

func collectIndexed(p bsp.Proc, tag int32) []int64 {
	var items []indexed
	max := int64(-1)
	for {
		m, ok := p.Recv()
		if !ok {
			break
		}
		if m.Tag != tag {
			continue
		}
		items = append(items, indexed{idx: m.Aux, val: m.Payload})
		if m.Aux > max {
			max = m.Aux
		}
	}
	out := make([]int64, max+1)
	for _, it := range items {
		out[it.idx] = it.val
	}
	return out
}

// AllReduce combines one value per processor and returns the result
// everywhere, in ceil(log2 p) supersteps of recursive doubling with
// h = 1 per superstep. Cost: ceil(log2 p) supersteps.
func AllReduce(p bsp.Proc, tag int32, op Op, x int64) int64 {
	n := p.P()
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("bsputil: AllReduce requires a power-of-two p, got %d", n))
	}
	id := p.ID()
	acc := x
	for d := 1; d < n; d *= 2 {
		p.Send(id^d, tag, acc, 0)
		p.Sync()
		for {
			m, ok := p.Recv()
			if !ok {
				break
			}
			if m.Tag == tag {
				acc = op(acc, m.Payload)
				p.Compute(1)
			}
		}
	}
	return acc
}

// PrefixSums returns the exclusive prefix of x under op with identity
// id0, via recursive doubling: ceil(log2 p) supersteps, h = 1 each.
func PrefixSums(p bsp.Proc, tag int32, op Op, x, id0 int64) int64 {
	n := p.P()
	me := p.ID()
	acc := x    // inclusive sum of a trailing window
	excl := id0 // exclusive prefix accumulated so far
	for d := 1; d < n; d *= 2 {
		if me+d < n {
			p.Send(me+d, tag, acc, 0)
		}
		p.Sync()
		for {
			m, ok := p.Recv()
			if !ok {
				break
			}
			if m.Tag == tag {
				excl = op(excl, m.Payload)
				acc = op(acc, m.Payload)
				p.Compute(2)
			}
		}
	}
	return excl
}

// AllToAll performs a total exchange: send[j] goes to processor j,
// and the function returns recv with recv[j] = the value processor j
// sent here. Cost: 1 superstep, h = p-1.
func AllToAll(p bsp.Proc, tag int32, send []int64) []int64 {
	n := p.P()
	if len(send) != n {
		panic(fmt.Sprintf("bsputil: AllToAll needs one value per processor, got %d for p=%d", len(send), n))
	}
	id := p.ID()
	for j := 0; j < n; j++ {
		if j != id {
			p.Send(j, tag, send[j], int64(id))
		}
	}
	p.Sync()
	recv := make([]int64, n)
	recv[id] = send[id]
	for {
		m, ok := p.Recv()
		if !ok {
			break
		}
		if m.Tag == tag {
			recv[m.Aux] = m.Payload
		}
	}
	return recv
}
