// Package collective implements the LogP collective operations the
// paper builds its BSP-on-LogP simulation from: Combine-and-Broadcast
// (CB) on a ceil(L/G)-ary tree (Section 4.1), which with OpAnd is the
// paper's barrier, and tree broadcasts, including the greedy LogP
// broadcast tree of Karp et al. that the paper cites as the alternative
// optimal CB.
//
// All collectives are written against logp.Proc, so they run unchanged
// on the native LogP machine and on the Theorem 1 cross-simulator.
package collective

import "repro/internal/logp"

// Mailbox layers selective receive over a logp.Proc. LogP delivery
// order is nondeterministic, so a protocol phase may acquire messages
// that belong to a later phase; the mailbox holds them until a matching
// receive asks for them. Every protocol in this package multiplexes one
// processor's traffic through a single Mailbox.
type Mailbox struct {
	Proc logp.Proc
	held []logp.Message
	// Sequence counters (NextSeq): the protocol tags this package and
	// the cross-simulators use live in the small negative range
	// [seqLowBase, 0), which an array covers without the map's per-run
	// allocations; other tags fall back to the lazily made map.
	seqLow [seqLowSpan]int64
	seqs   map[int32]int64
}

const (
	seqLowBase = -128
	seqLowSpan = 128
)

// NewMailbox wraps p.
func NewMailbox(p logp.Proc) *Mailbox {
	return &Mailbox{Proc: p}
}

// Reset re-points the mailbox at p and clears held messages and every
// sequence counter, restoring the as-new state while keeping the held
// buffer's backing array; pooled protocol adapters reset their mailbox
// per run instead of allocating a fresh one.
func (mb *Mailbox) Reset(p logp.Proc) {
	mb.Proc = p
	mb.held = mb.held[:0]
	mb.seqLow = [seqLowSpan]int64{}
	clear(mb.seqs)
}

// NextSeq returns consecutive sequence numbers per tag, starting at 0.
// Collectives stamp their messages with the sequence so that two
// instances of the same collective cannot exchange messages even when
// the medium reorders traffic between the same endpoints.
func (mb *Mailbox) NextSeq(tag int32) int64 {
	if tag >= seqLowBase && tag < seqLowBase+seqLowSpan {
		s := mb.seqLow[tag-seqLowBase]
		mb.seqLow[tag-seqLowBase] = s + 1
		return s
	}
	if mb.seqs == nil {
		mb.seqs = make(map[int32]int64)
	}
	s := mb.seqs[tag]
	mb.seqs[tag] = s + 1
	return s
}

// RecvWhere blocks until a message satisfying match is available,
// holding every other message for later receives.
func (mb *Mailbox) RecvWhere(match func(logp.Message) bool) logp.Message {
	// Index-based scan: a Message carries an interface word, so a
	// range-by-value copy per held entry is measurable on hot paths.
	for i := range mb.held {
		if match(mb.held[i]) {
			m := mb.held[i]
			mb.held = append(mb.held[:i], mb.held[i+1:]...)
			return m
		}
	}
	for {
		m := mb.Proc.Recv()
		if match(m) {
			return m
		}
		mb.held = append(mb.held, m)
	}
}

// RecvAllWhere fills out with the next len(out) messages satisfying
// match, exactly as len(out) RecvWhere calls would: first the held
// matches, in held order, then acquisitions, holding every other
// message in arrival order. The acquisitions go through RecvInto, one
// run for the number of matches still missing until out is full, so a
// Machine answers them with one crossing per run instead of one per
// message.
func (mb *Mailbox) RecvAllWhere(match func(logp.Message) bool, out []logp.Message) {
	n := 0
	rest := mb.held[:0]
	for i := range mb.held {
		if n < len(out) && match(mb.held[i]) {
			out[n] = mb.held[i]
			n++
		} else {
			rest = append(rest, mb.held[i])
		}
	}
	mb.held = rest
	for n < len(out) {
		mb.Proc.RecvInto(out[n:])
		n = len(mb.KeepMatching(out, n, match))
	}
}

// KeepMatching sorts got[from:], messages acquired in that order, as
// one RecvWhere at a time would: the matches are compacted in place
// right after got[:from], keeping their order, and every other message
// is held in arrival order. It returns got cut to the kept messages.
func (mb *Mailbox) KeepMatching(got []logp.Message, from int, match func(logp.Message) bool) []logp.Message {
	n := from
	for i := from; i < len(got); i++ {
		if match(got[i]) {
			got[n] = got[i]
			n++
		} else {
			mb.held = append(mb.held, got[i])
		}
	}
	return got[:n]
}

// RecvTagSeq receives the next message with the given tag and Aux
// sequence stamp.
func (mb *Mailbox) RecvTagSeq(tag int32, seq int64) logp.Message {
	return mb.RecvWhere(func(m logp.Message) bool {
		return m.Tag == tag && m.Aux == seq
	})
}

// TakeMatchingInto removes every held message satisfying match and
// appends it to out, preserving arrival order, so hot callers can
// recycle a scratch buffer across calls. It does not touch the machine
// buffer; callers polling it themselves sort what they acquire with
// KeepMatching.
func (mb *Mailbox) TakeMatchingInto(match func(logp.Message) bool, out []logp.Message) []logp.Message {
	rest := mb.held[:0]
	for i := range mb.held {
		if match(mb.held[i]) {
			out = append(out, mb.held[i])
		} else {
			rest = append(rest, mb.held[i])
		}
	}
	mb.held = rest
	return out
}
