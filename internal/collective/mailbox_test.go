package collective

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/logp"
)

// mailboxCase is a decoded FuzzRecvAllWhere input: every processor
// starts with some messages held, sends tagged messages to the others,
// and then receives in two rounds, the first for even tags and the
// second for odd ones, before draining the rest of its in-degree with
// plain Recvs.
type mailboxCase struct {
	p     int
	held  [][]logp.Message // per processor, held before anything runs
	sends [][]logp.Message // per processor, in send order
	// want[i] is processor i's two round lengths, each at most the
	// matches it can get, so every run completes.
	want  [][2]int
	inDeg []int
	seed  uint64
}

// decodeMailboxCase turns fuzz bytes into a 2- to 4-processor case. Each
// 3-byte group adds, round-robin over the processors, one held message
// (tag from the second byte) or one send (destination and tag from the
// second byte), chosen by the first byte; the third byte is the
// payload. Tags run over 0..3, so every round has matching and
// non-matching traffic. The input's second and third bytes pick what
// share of its matches each processor takes in each round.
func decodeMailboxCase(data []byte) (mailboxCase, bool) {
	if len(data) < 3 {
		return mailboxCase{}, false
	}
	h := fnv.New64a()
	h.Write(data)
	c := mailboxCase{p: 2 + int(data[0])%3, seed: h.Sum64() | 1}
	c.held = make([][]logp.Message, c.p)
	c.sends = make([][]logp.Message, c.p)
	c.want = make([][2]int, c.p)
	c.inDeg = make([]int, c.p)
	cut := [2]byte{data[1], data[2]}
	data = data[3:]
	for id := 0; len(data) >= 3; id = (id + 1) % c.p {
		tag := int32(data[1] % 4)
		if data[0]%3 == 0 {
			if len(c.held[id]) < 6 {
				c.held[id] = append(c.held[id], logp.Message{Src: id, Dst: id, Tag: tag, Payload: int64(data[2])})
			}
		} else if len(c.sends[id]) < 12 {
			dst := (id + 1 + int(data[1]/4)%(c.p-1)) % c.p
			c.sends[id] = append(c.sends[id], logp.Message{Src: id, Dst: dst, Tag: tag, Payload: int64(data[2])})
			c.inDeg[dst]++
		}
		data = data[3:]
	}
	// avail[i][r] counts the messages processor i can match in round r:
	// its held ones and its incoming ones with tag parity r.
	avail := make([][2]int, c.p)
	for id := range c.p {
		for _, m := range c.held[id] {
			avail[id][m.Tag%2]++
		}
		for _, m := range c.sends[id] {
			avail[m.Dst][m.Tag%2]++
		}
	}
	for id := range c.p {
		for r := range 2 {
			c.want[id][r] = avail[id][r] * (int(cut[r]) % 4) / 3
		}
	}
	return c, true
}

// mailboxRun is what one processor saw: both rounds' messages, the
// Recv drain, and the held list left at the end.
type mailboxRun struct {
	rounds [2][]logp.Message
	drain  []logp.Message
	held   []logp.Message
}

// mailboxObs is everything one run of a case exposes.
type mailboxObs struct {
	res   logp.Result
	err   string
	trace []logp.Event
	runs  []mailboxRun
}

// runMailboxCase runs c on a machine configured as (policy, order),
// receiving each round with one RecvAllWhere when all is set and with a
// loop of RecvWhere otherwise.
func runMailboxCase(c mailboxCase, params logp.Params, policy logp.DeliveryPolicy, order logp.AcceptOrder, all bool) mailboxObs {
	o := mailboxObs{runs: make([]mailboxRun, c.p)}
	m := logp.NewMachine(params, logp.WithDeliveryPolicy(policy), logp.WithAcceptOrder(order),
		logp.WithSeed(c.seed), logp.WithEventLog(func(ev logp.Event) { o.trace = append(o.trace, ev) }))
	var err error
	o.res, err = m.Run(func(p logp.Proc) {
		id := p.ID()
		mb := NewMailbox(p)
		mb.held = append(mb.held, c.held[id]...)
		for _, s := range c.sends[id] {
			p.Send(s.Dst, s.Tag, s.Payload, s.Aux)
		}
		run := &o.runs[id]
		acquired := 0
		for r := range 2 {
			match := func(m logp.Message) bool { return m.Tag%2 == int32(r) }
			out := make([]logp.Message, c.want[id][r])
			before := len(mb.held)
			if all {
				mb.RecvAllWhere(match, out)
			} else {
				for k := range out {
					out[k] = mb.RecvWhere(match)
				}
			}
			// An acquisition either filled a slot of out that the held
			// list did not, or joined the held list.
			acquired += len(out) + len(mb.held) - before
			run.rounds[r] = out
			p.Compute(1 + int64(len(out)))
		}
		for range c.inDeg[id] - acquired {
			run.drain = append(run.drain, p.Recv())
		}
		run.held = append([]logp.Message(nil), mb.held...)
	})
	o.err = fmt.Sprint(err)
	return o
}

// checkRecvAllWhere holds one RecvAllWhere per round to the loop of
// RecvWhere calls it replaces, under every delivery policy and
// acceptance order, on a capacity-4 and a capacity-1 machine: the same
// Result and error, the same event trace, the same messages in each
// round and in the drain, and the same held remainder.
func checkRecvAllWhere(t *testing.T, data []byte) {
	t.Helper()
	c, ok := decodeMailboxCase(data)
	if !ok {
		return
	}
	for _, params := range []logp.Params{
		{P: c.p, L: 8, O: 1, G: 2},
		{P: c.p, L: 2, O: 1, G: 2},
	} {
		for _, policy := range []logp.DeliveryPolicy{logp.DeliverMaxLatency, logp.DeliverMinLatency, logp.DeliverRandom} {
			for _, order := range []logp.AcceptOrder{logp.AcceptFIFO, logp.AcceptLIFO, logp.AcceptRandom} {
				label := fmt.Sprintf("%v %v/%v", params, policy, order)
				want := runMailboxCase(c, params, policy, order, false)
				got := runMailboxCase(c, params, policy, order, true)
				if want.err != "<nil>" {
					t.Fatalf("%s: the RecvWhere loop failed: %s", label, want.err)
				}
				if got.err != want.err {
					t.Fatalf("%s: error %s, want %s", label, got.err, want.err)
				}
				if !reflect.DeepEqual(got.res, want.res) {
					t.Fatalf("%s: Result mismatch:\nwant %+v\n got %+v", label, want.res, got.res)
				}
				if !reflect.DeepEqual(got.trace, want.trace) {
					t.Fatalf("%s: trace mismatch (%d events, want %d)", label, len(got.trace), len(want.trace))
				}
				for id := range got.runs {
					if !reflect.DeepEqual(got.runs[id], want.runs[id]) {
						t.Fatalf("%s: processor %d saw\n%+v\nwant\n%+v", label, id, got.runs[id], want.runs[id])
					}
				}
			}
		}
	}
}

// FuzzRecvAllWhere differentially fuzzes Mailbox.RecvAllWhere against
// the loop of RecvWhere calls it stands for. `go test` replays the
// seeds; `go test -fuzz=FuzzRecvAllWhere` explores.
func FuzzRecvAllWhere(f *testing.F) {
	f.Add([]byte{0, 3, 3, 1, 0, 5, 1, 1, 6})
	// Two processors swapping a dozen mixed-tag messages each, with
	// held messages of both parities, taking every match.
	swap := []byte{0, 3, 3}
	for i := range 30 {
		kind := byte(1)
		if i%5 == 0 {
			kind = 0
		}
		swap = append(swap, kind, byte(i*7), byte(i))
	}
	f.Add(swap)
	// Four processors, partial rounds: the drain then collects matches
	// the rounds left behind.
	four := []byte{2, 1, 2}
	for i := range 48 {
		four = append(four, byte(i%4), byte(i*13), byte(i))
	}
	f.Add(four)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		checkRecvAllWhere(t, data)
	})
}
