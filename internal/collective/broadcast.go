package collective

import (
	"container/heap"

	"repro/internal/logp"
)

// BroadcastSchedule is the greedy LogP broadcast tree of Karp, Sahay,
// Santos and Schauser ("Optimal broadcast and summation in the LogP
// model", SPAA 1993), which the paper cites as the alternative optimal
// tree-based CB. Every processor that knows the value keeps
// transmitting it to new processors every G steps; the greedy schedule
// assigns each transmission slot to the processor that becomes informed
// earliest.
type BroadcastSchedule struct {
	// Root is the source processor.
	Root int
	// Parent[i] is the processor that sends the value to i, or -1
	// for the root.
	Parent []int
	// Targets[i] lists the processors i transmits to, in order.
	Targets [][]int
	// Informed[i] is the predicted time at which i has acquired the
	// value (0 for the root), assuming worst-case latency L.
	Informed []int64
}

type senderSlot struct {
	next int64 // next submission instant
	id   int
}

type senderHeap []senderSlot

func (h senderHeap) Len() int { return len(h) }
func (h senderHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return h[i].id < h[j].id
}
func (h senderHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *senderHeap) Push(x interface{}) { *h = append(*h, x.(senderSlot)) }
func (h *senderHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// BuildBroadcastSchedule computes the greedy broadcast tree for the
// given machine parameters. The schedule depends only on (P, L, o, G),
// so every processor can compute it locally without communication.
func BuildBroadcastSchedule(params logp.Params, root int) *BroadcastSchedule {
	n := params.P
	s := &BroadcastSchedule{
		Root:     root,
		Parent:   make([]int, n),
		Targets:  make([][]int, n),
		Informed: make([]int64, n),
	}
	for i := range s.Parent {
		s.Parent[i] = -1
	}
	if n == 1 {
		return s
	}
	// Senders submit at ready+o, ready+o+G, ...; a message submitted
	// at t is acquired by its target at t+L+o in the worst case.
	h := &senderHeap{{next: params.O, id: root}}
	informed := 1
	for next := 0; informed < n; next++ {
		target := (root + 1 + next) % n
		slot := heap.Pop(h).(senderSlot)
		s.Parent[target] = slot.id
		s.Targets[slot.id] = append(s.Targets[slot.id], target)
		arrive := slot.next + params.L + params.O
		s.Informed[target] = arrive
		informed++
		heap.Push(h, senderSlot{next: slot.next + params.G, id: slot.id})
		// The target acquired at arrive-o; its first submission waits
		// for both the o overhead (arrive+o) and the combined
		// per-processor gap after the acquisition (arrive-o+G).
		first := arrive + params.O
		if g := arrive - params.O + params.G; g > first {
			first = g
		}
		heap.Push(h, senderSlot{next: first, id: target})
	}
	return s
}

// RunBroadcast executes the schedule from inside a LogP program and
// returns the broadcast value (x at the root, the received value
// elsewhere). It uses a single tag.
func RunBroadcast(mb *Mailbox, tag int32, sched *BroadcastSchedule, x int64) int64 {
	p := mb.Proc
	id := p.ID()
	seq := mb.NextSeq(tag)
	val := x
	if id != sched.Root {
		m := mb.RecvTagSeq(tag, seq)
		val = m.Payload
	}
	for _, target := range sched.Targets[id] {
		p.Send(target, tag, val, seq)
	}
	return val
}
