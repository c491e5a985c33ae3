package logp_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logp"
	"repro/internal/logp/reference"
)

// fuzzOp is one decoded instruction of a generated processor script.
type fuzzOp struct {
	kind byte // 0 compute, 1 waituntil, 2 send, 3 tryrecv, 4 buffered, 5 sendfrom, 6 tryrecvinto
	a, b int64
	dst  int
	msgs []logp.Message // sendfrom's run
}

// decodeFuzzProgram turns raw fuzz bytes into a guaranteed-terminating
// Program: each processor executes a bounded script of local work,
// idling (relative to Now, or until an absolute instant), sends, runs
// of 0 to 2*DeferCap+1 sends by one SendFrom, polls, TryRecvInto polls
// of 0 to 4 messages until an absolute instant (often already past),
// and buffer queries, then drains exactly its in-degree with blocking
// receives: RecvInto runs of 0 to 6 messages whose lengths come from
// the script's bytes, a Compute after each, and one run of whatever
// remains once the script's lengths are used up. Every send eventually
// completes (the Stalling Rule resolves by time passing, not by
// receiver action), every TryRecvInto stops once its clock passes its
// instant, and every drain target is met, so the program terminates
// under any admissible execution — the property that lets the
// differential harness compare complete runs. Received payloads feed
// back into Compute amounts so the interleaving is data-dependent,
// exercising the engine's run-ahead in input-sensitive programs. The
// reference and the ProgramAsScript bridge perform SendFrom, RecvInto
// and TryRecvInto as plain loops of SendBody, of Recv, and of Buffered,
// Now and TryRecv, so the comparison checks the engine's one-crossing
// runs against those loops.
func decodeFuzzProgram(data []byte) (logp.Program, int) {
	if len(data) < 2 {
		return nil, 0
	}
	p := 2 + int(data[0])%3 // 2..4 processors
	data = data[1:]
	scripts := make([][]fuzzOp, p)
	inDeg := make([]int, p)
	// Round-robin the byte stream over the processors so every prefix
	// of the input shapes every script.
	proc := 0
	for len(data) >= 3 {
		op := fuzzOp{kind: data[0] % 7, a: int64(data[1]), b: int64(data[2])}
		if len(scripts[proc]) < 24 { // bounded scripts keep cases fast
			switch op.kind {
			case 2:
				op.dst = (proc + 1 + int(op.a)%(p-1)) % p // never self
				inDeg[op.dst]++
			case 5:
				op.msgs = make([]logp.Message, op.a%(2*logp.DeferCap+2))
				for k := range op.msgs {
					dst := (proc + 1 + (int(op.b)+k)%(p-1)) % p
					op.msgs[k] = logp.Message{Dst: dst, Tag: int32(k % 4), Payload: op.b + int64(k), Aux: op.a, Body: k}
					inDeg[dst]++
				}
			}
			scripts[proc] = append(scripts[proc], op)
		}
		data = data[3:]
		proc = (proc + 1) % p
	}
	prog := func(pr logp.Proc) {
		got := 0
		var polled [4]logp.Message
		for _, op := range scripts[pr.ID()] {
			switch op.kind {
			case 0:
				pr.Compute(1 + op.a%8)
			case 1:
				if op.b%2 == 0 {
					pr.WaitUntil(pr.Now() + op.a%16)
				} else {
					// An absolute instant, so no Now crosses first and the
					// wait can join a batch.
					pr.WaitUntil(op.a % 64)
				}
			case 2:
				pr.SendBody(op.dst, int32(op.a%4), op.b, op.a, op.b)
			case 3:
				if m, ok := pr.TryRecv(); ok {
					got++
					pr.Compute(1 + m.Payload%5)
				}
			case 4:
				pr.Compute(int64(pr.Buffered()%3) + 1)
			case 5:
				pr.SendFrom(op.msgs)
			case 6:
				n := pr.TryRecvInto(polled[:op.a%5], op.b%64)
				got += n
				for _, m := range polled[:n] {
					pr.Compute(1 + m.Payload%5)
				}
			}
		}
		script, need := scripts[pr.ID()], inDeg[pr.ID()]
		buf := make([]logp.Message, need)
		for k := 0; got < need; k++ {
			n := need - got
			if k < len(script) {
				n = min(n, int(script[k].a+script[k].b)%7)
			}
			run := buf[:n]
			pr.RecvInto(run)
			got += n
			sum := int64(0)
			for _, m := range run {
				sum += m.Payload
			}
			pr.Compute(1 + sum%7)
		}
	}
	return prog, p
}

// variant is one admissible execution: a delivery policy, an
// acceptance order, and the seed their random choices draw from.
type variant struct {
	policy logp.DeliveryPolicy
	order  logp.AcceptOrder
	seed   uint64
}

func (v variant) String() string { return fmt.Sprintf("%v/%v", v.policy, v.order) }

// variants sweeps every delivery policy against every acceptance order,
// so each ordering rule meets each slot rule, and random acceptance and
// random delivery share the seeded stream both with and without each
// other.
func variants(seed uint64) []variant {
	var vs []variant
	for _, policy := range []logp.DeliveryPolicy{logp.DeliverMaxLatency, logp.DeliverMinLatency, logp.DeliverRandom} {
		for _, order := range []logp.AcceptOrder{logp.AcceptFIFO, logp.AcceptLIFO, logp.AcceptRandom} {
			vs = append(vs, variant{policy: policy, order: order, seed: seed})
		}
	}
	return vs
}

// observation is everything a run exposes: its Result and error, the
// emitted trace, and the streaming auditor's metrics over that trace.
type observation struct {
	res     logp.Result
	err     error
	trace   []logp.Event
	metrics *logp.Metrics
}

// observe performs one run with a recording, auditing event sink. A run
// that completes must also satisfy the auditor, Result cross-checks
// included.
func observe(t *testing.T, params logp.Params, run func(sink func(logp.Event)) (logp.Result, error)) observation {
	t.Helper()
	a := logp.NewAuditor(params, logp.TraceOptions{})
	var o observation
	o.res, o.err = run(func(ev logp.Event) {
		o.trace = append(o.trace, ev)
		a.Observe(ev)
	})
	if o.err == nil {
		if err := a.Finish(o.res); err != nil {
			t.Fatalf("auditor rejected a run: %v (all: %v)", err, a.Violations())
		}
		o.metrics = a.Metrics()
	}
	return o
}

// engineRun observes run on a fresh Machine configured as v.
func engineRun(t *testing.T, params logp.Params, v variant, run func(*logp.Machine) (logp.Result, error)) observation {
	t.Helper()
	return observe(t, params, func(sink func(logp.Event)) (logp.Result, error) {
		return run(logp.NewMachine(params, logp.WithDeliveryPolicy(v.policy),
			logp.WithAcceptOrder(v.order), logp.WithSeed(v.seed), logp.WithEventLog(sink)))
	})
}

// referenceRun observes prog on the reference interpreter configured
// as v.
func referenceRun(t *testing.T, params logp.Params, v variant, prog logp.Program) observation {
	t.Helper()
	return observe(t, params, func(sink func(logp.Event)) (logp.Result, error) {
		return reference.Run(params, prog, reference.Config{
			Policy: v.policy, Order: v.order, Seed: v.seed, Sink: sink,
		})
	})
}

// mustMatch fails unless got reproduces want bit for bit: error text,
// Result, every trace event in order, and the audit metrics.
func mustMatch(t *testing.T, label string, want, got observation) {
	t.Helper()
	if fmt.Sprint(want.err) != fmt.Sprint(got.err) {
		t.Fatalf("%s: error mismatch:\nwant %v\n got %v", label, want.err, got.err)
	}
	if !reflect.DeepEqual(want.res, got.res) {
		t.Fatalf("%s: Result mismatch:\nwant %+v\n got %+v", label, want.res, got.res)
	}
	for i := range min(len(want.trace), len(got.trace)) {
		if !reflect.DeepEqual(want.trace[i], got.trace[i]) {
			t.Fatalf("%s: trace diverges at event %d:\nwant %+v\n got %+v", label, i, want.trace[i], got.trace[i])
		}
	}
	if len(want.trace) != len(got.trace) {
		t.Fatalf("%s: trace length mismatch: want %d, got %d", label, len(want.trace), len(got.trace))
	}
	if !reflect.DeepEqual(want.metrics, got.metrics) {
		t.Fatalf("%s: audit metrics mismatch:\nwant %+v\n got %+v", label, want.metrics, got.metrics)
	}
}

// singleKinds reduces each op's kind byte in seed mod 5, so the
// seed's ops stay among the five single-message kinds (compute,
// waituntil, send, tryrecv, buffered), and returns seed.
func singleKinds(seed []byte) []byte {
	for i := 1; i < len(seed); i += 3 {
		seed[i] %= 5
	}
	return seed
}

// fuzzSeed derives a run seed from the fuzz input.
func fuzzSeed(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64() | 1
}

// checkEngineMatchesReference runs the decoded program on the engine
// and on the reference interpreter under every policy and acceptance
// order, over parameter sets including the degenerate corners (G == L
// pins the capacity to 1, so every destination has at most one message
// in flight; O == G == L aligns every operation to instant
// boundaries; L = 9, o = 3, G = 4 leaves a partial capacity window;
// L = 70 makes each destination's slot ring two 64-bit words, so
// delivery windows cross words).
// Pooling, processor recycling, the proc-side run-ahead of Compute
// and WaitUntil, and the batching of a Program's Sends must all be
// unobservable. The program driven through ProgramAsScript on the
// Script engine must in turn reproduce the Program engine's run.
func checkEngineMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	prog, p := decodeFuzzProgram(data)
	if prog == nil {
		return
	}
	checkProgramMatchesReference(t, prog, p, fuzzSeed(data))
}

// checkProgramMatchesReference is checkEngineMatchesReference for a
// given p-processor program, its random choices drawn from seed.
func checkProgramMatchesReference(t *testing.T, prog logp.Program, p int, seed uint64) {
	t.Helper()
	for _, params := range []logp.Params{
		{P: p, L: 8, O: 1, G: 2},
		{P: p, L: 2, O: 1, G: 2},  // G == L: capacity 1
		{P: p, L: 2, O: 2, G: 2},  // O == G == L
		{P: p, L: 9, O: 3, G: 4},  // capacity 3, L not a multiple of G
		{P: p, L: 70, O: 1, G: 2}, // a 128-instant slot ring: two words
	} {
		for _, v := range variants(seed) {
			want := referenceRun(t, params, v, prog)
			got := engineRun(t, params, v, func(m *logp.Machine) (logp.Result, error) { return m.Run(prog) })
			mustMatch(t, fmt.Sprintf("%v/%v", params, v), want, got)
			bridged := engineRun(t, params, v, func(m *logp.Machine) (logp.Result, error) {
				sc := logp.ProgramAsScript(params, prog)
				defer sc.Stop()
				return m.RunScript(sc)
			})
			mustMatch(t, fmt.Sprintf("%v/%v bridge", params, v), got, bridged)
		}
	}
}

// FuzzEngineMatchesReference differentially fuzzes the engine's
// Program form against the reference interpreter. `go test` replays
// the seed corpus deterministically; `go test
// -fuzz=FuzzEngineMatchesReference` explores.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 0, 0, 2, 1, 3, 2, 2, 2})
	// The five single-message kinds in turn on four processors.
	dense := make([]byte, 64)
	for i := range dense {
		dense[i] = byte(i*7 + 2)
	}
	f.Add(singleKinds(dense))
	// Poll-heavy: TryRecv and Buffered interleaved with sparse sends.
	poll := make([]byte, 48)
	for i := range poll {
		poll[i] = byte((i % 5) * 3)
	}
	f.Add(singleKinds(poll))
	// All-compute run-ahead: no communication at all on some procs.
	f.Add([]byte{2, 0, 9, 9, 0, 4, 4, 1, 8, 8, 2, 5, 5})
	// Batches that fill: twelve consecutive Sends on each of two
	// processors, then on processor 0 of four, with Compute, WaitUntil,
	// polls and Sends mixed on the others. Both exceed DeferCap.
	sends := []byte{0}
	for i := range 24 {
		sends = append(sends, 2, byte(3*i), byte(i))
	}
	f.Add(sends)
	mixed := []byte{2}
	for i := range 48 {
		if i%4 == 0 {
			mixed = append(mixed, 2, byte(i), byte(i))
		} else {
			mixed = append(mixed, byte(i%5), byte(5*i), byte(i))
		}
	}
	f.Add(mixed)
	// A RecvInto behind a full batch: each of two processors issues
	// DeferCap-1 Sends, so the drain's first Recv fills the batch, then
	// DeferCap Sends, so the batch crosses full just before it, then
	// 2*DeferCap+1, so it joins a batch that crossed full twice.
	for _, n := range []int{logp.DeferCap - 1, logp.DeferCap, 2*logp.DeferCap + 1} {
		full := []byte{0}
		for i := range 2 * n {
			full = append(full, 2, byte(3*i+1), byte(i))
		}
		f.Add(full)
	}
	// SendFrom runs of DeferCap-1, DeferCap and 2*DeferCap+1 messages
	// behind a Send, back to back, and followed by local work, with
	// TryRecvInto polls between them whose instants lie behind and
	// ahead of the clock. Each instruction is repeated for each of the
	// three processors, so every one runs the same script.
	runs := []byte{1}
	for i, n := range []int{logp.DeferCap - 1, logp.DeferCap, 2*logp.DeferCap + 1} {
		for _, op := range [][3]byte{
			{2, byte(i), byte(i)},
			{5, byte(n), byte(i)},
			{5, byte(n), byte(2*i + 1)},
			{6, 4, byte(10 * i)},
			{0, byte(i), 0},
			{6, byte(i + 1), 63},
			{5, byte(n + 1), byte(i)},
		} {
			for range 3 {
				runs = append(runs, op[:]...)
			}
		}
	}
	f.Add(runs)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkEngineMatchesReference(t, data)
	})
}

// TestFastPathEquivalenceCorpus pins a few structured cases (beyond
// the fuzz seed corpus) so the engine-versus-reference check runs on
// plain `go test` even when fuzzing is unavailable.
func TestFastPathEquivalenceCorpus(t *testing.T) {
	cases := [][]byte{
		{0, 2, 1, 1, 2, 3, 3, 0, 5, 5, 4, 2, 2, 2, 9, 9},
		{1, 2, 7, 7, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		{2, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 4, 7, 9, 3, 2, 3, 3, 4, 6},
		// SendFrom runs and TryRecvInto polls.
		{1, 5, 17, 3, 6, 4, 9, 5, 8, 2, 6, 3, 40, 2, 1, 1, 6, 2, 0, 5, 9, 5, 0, 3, 3, 6, 4, 63},
	}
	for _, data := range cases {
		checkEngineMatchesReference(t, data)
	}
}

// TestBatchedProgramsMatchReference holds hand-written Programs that
// exercise a Program's batch to the reference, through
// checkProgramMatchesReference: Sends that fill the batch more than
// once, local work and a Now whose clock the Sends batched before them
// decide, batches ended by TryRecv and by Buffered, a return straight
// out of a batch, SendFrom runs longer than a batch and back to back,
// a SendFrom that panics at an invalid destination, and TryRecvInto
// polls that stop on each of their conditions. The fuzzed programs
// reach only some of these: their WaitUntil reads Now first, which
// crosses.
func TestBatchedProgramsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    int
		prog logp.Program
	}{
		{"sends-fill-batch", 2, func(p logp.Proc) {
			n := 2*logp.DeferCap + 1
			if p.ID() == 0 {
				for k := range n {
					p.Send(1, int32(k%4), int64(k), 0)
				}
				return
			}
			for range n {
				p.Compute(1 + p.Recv().Payload%3)
			}
		}},
		{"local-work-behind-sends", 2, func(p logp.Proc) {
			if p.ID() == 1 {
				for range 3 {
					p.Recv()
				}
				return
			}
			p.Send(1, 0, 1, 0)
			p.Compute(3)
			p.WaitUntil(2)  // already past once the Send is accepted
			p.WaitUntil(12) // an absolute instant ahead of the clock
			p.Send(1, 0, 2, 0)
			p.Send(1, 0, p.Now(), 0)
		}},
		{"batches-end-in-polls", 3, func(p logp.Proc) {
			next := (p.ID() + 1) % p.P()
			got := 0
			p.Send(next, 0, 1, 0)
			p.Send(next, 1, 2, 0)
			p.Compute(2)
			p.WaitUntil(15)
			if _, ok := p.TryRecv(); ok {
				got++
			}
			p.Send(next, 2, 3, 0)
			p.Compute(1)
			p.Send(next, 3, int64(p.Buffered()), 0)
			for ; got < 4; got++ {
				p.Compute(1 + p.Recv().Payload%3)
			}
		}},
		{"recvinto-behind-sends", 2, func(p logp.Proc) {
			// 2*DeferCap+1 Sends cross full twice and leave one in the
			// batch, so the RecvInto's first Recv joins it.
			n := 2*logp.DeferCap + 1
			for k := range n {
				p.Send(1-p.ID(), int32(k%4), int64(k), 0)
			}
			got := make([]logp.Message, n)
			p.RecvInto(got)
			for _, m := range got {
				p.Compute(1 + m.Payload%3)
			}
		}},
		{"recvinto-empty", 2, func(p logp.Proc) {
			// RecvInto of nothing behind a Send leaves the Send batched,
			// so the Compute and the Send after it join the same batch.
			p.Send(1-p.ID(), 0, 1, 0)
			p.RecvInto(nil)
			p.Compute(2)
			p.Send(1-p.ID(), 0, 2, 0)
			p.RecvInto(make([]logp.Message, 0, 4))
			got := make([]logp.Message, 2)
			p.RecvInto(got)
			p.Compute(got[0].Payload + got[1].Payload)
		}},
		{"sendfrom-longer-than-batch", 2, func(p logp.Proc) {
			// One SendFrom of more messages than a batch holds, then a
			// RecvInto: the run's entry and the Recv cross together.
			n := 2*logp.DeferCap + 1
			src := make([]logp.Message, n)
			for k := range src {
				src[k] = logp.Message{Dst: 1 - p.ID(), Tag: int32(k % 4), Payload: int64(k), Aux: int64(p.ID()), Body: k}
			}
			p.SendFrom(src)
			got := make([]logp.Message, n)
			p.RecvInto(got)
			for _, m := range got {
				p.Compute(1 + m.Payload%3 + int64(m.Body.(int)))
			}
		}},
		{"sendfrom-back-to-back", 3, func(p logp.Proc) {
			// Behind a Send, two SendFroms back to back and a third after
			// local work, all before any answer: each SendFrom with one
			// still open crosses for it first. A SendFrom of nothing in
			// between adds nothing.
			next := (p.ID() + 1) % p.P()
			a := []logp.Message{{Dst: next, Payload: 1}, {Dst: next, Payload: 2}, {Dst: next, Payload: 3}}
			b := []logp.Message{{Dst: next, Tag: 1, Payload: 4}, {Dst: next, Tag: 1, Payload: 5}}
			c := []logp.Message{{Dst: next, Tag: 2, Payload: 6}}
			p.Send(next, 3, 0, 0)
			p.SendFrom(a)
			p.SendFrom(b)
			p.Compute(2)
			p.WaitUntil(30)
			p.SendFrom(nil)
			p.SendFrom(c)
			p.Send(next, 3, 7, 0)
			got := make([]logp.Message, 8)
			p.RecvInto(got)
			for _, m := range got {
				p.Compute(1 + m.Payload%3)
			}
		}},
		{"sendfrom-invalid-destination", 4, func(p logp.Proc) {
			// Processor 2's fourth destination is out of range and
			// processor 3's third is itself: each panics once the
			// messages before it are sent, at the clock the SendBody loop
			// would have reached, and the earlier panic is reported.
			switch p.ID() {
			case 0:
				for range 4 {
					p.Recv()
				}
			case 1:
				p.Recv()
			case 2:
				p.SendFrom([]logp.Message{{Dst: 0}, {Dst: 0, Payload: 1}, {Dst: 0, Payload: 2}, {Dst: 9}, {Dst: 0}})
			case 3:
				p.Compute(1)
				p.SendFrom([]logp.Message{{Dst: 1}, {Dst: 0, Payload: 1}, {Dst: 3}, {Dst: 1}})
			}
		}},
		{"tryrecvinto-stops", 2, func(p logp.Proc) {
			// Processor 1's TryRecvInto polls stop with dst full, with the
			// clock past until after an acquisition, with the clock past
			// until before any poll, and with nothing buffered. A
			// TryRecvInto of nothing between batched Sends adds nothing.
			if p.ID() == 0 {
				for k := range 3 {
					p.Send(1, 0, int64(k), 0)
				}
				p.WaitUntil(300)
				p.Send(1, 0, 3, 0)
				p.Recv()
				return
			}
			var buf [4]logp.Message
			stop := func(n, want int, cond string) {
				if n != want {
					panic(fmt.Sprintf("TryRecvInto stopping on %s stored %d, want %d", cond, n, want))
				}
			}
			p.WaitUntil(200) // the first three have arrived
			p.Send(0, 1, 7, 0)
			p.TryRecvInto(nil, 1000)
			stop(p.TryRecvInto(buf[:2], 1000), 2, "a full dst")
			p.WaitUntil(400) // the fourth has arrived
			stop(p.TryRecvInto(buf[:], p.Now()), 1, "the clock passing until")
			stop(p.TryRecvInto(buf[:], p.Now()-1), 0, "the clock past until")
			stop(p.TryRecvInto(buf[:], 1000), 1, "nothing buffered")
			p.Compute(buf[0].Payload)
		}},
		{"return-from-batch", 2, func(p logp.Proc) {
			n := logp.DeferCap + 1
			if p.ID() == 0 {
				for k := range n {
					p.Send(1, 0, int64(k), 0)
				}
				return
			}
			for range n {
				p.Recv()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkProgramMatchesReference(t, tc.prog, tc.p, 1)
		})
	}
}

// TestEngineMatchesReferenceOnErrors holds the engine's failure reports
// to the reference: a deadlock, the earliest processor panic in
// simulated time, Send and Compute validation, and a strict stall-free
// run that stalls must give the same error text, Result, and trace, on
// the Program engine and through ProgramAsScript on the Script engine.
func TestEngineMatchesReferenceOnErrors(t *testing.T) {
	params := logp.Params{P: 4, L: 8, O: 1, G: 2}
	for _, tc := range []struct {
		name   string
		prog   logp.Program
		strict bool
		want   string
	}{
		{"deadlock", func(p logp.Proc) {
			if p.ID() == 0 {
				p.Send(1, 0, 7, 0)
			}
			if p.ID() == 1 {
				p.Recv()
				p.Recv() // nobody sends a second message
			}
		}, false, "deadlock: processors [1] blocked on Recv"},
		{"deadlock-in-recvinto", func(p logp.Proc) {
			if p.ID() == 0 {
				p.Send(1, 0, 7, 0)
				p.Send(1, 0, 8, 0)
			}
			if p.ID() == 1 {
				p.RecvInto(make([]logp.Message, 3)) // only two arrive
			}
		}, false, "deadlock: processors [1] blocked on Recv"},
		{"first-panic", func(p logp.Proc) {
			p.Compute(int64(1 + p.ID()))
			if p.ID()%2 == 1 {
				panic("boom")
			}
			p.Compute(50)
		}, false, "processor 1 panicked: boom"},
		// Processor 1 is woken at t=9 and runs ahead through Compute(10)
		// into its panic before processor 2, woken at the same instant,
		// acquires and panics at clock 10; 1's panic is at clock 19.
		{"panic-after-local-work", func(p logp.Proc) {
			switch p.ID() {
			case 0:
				p.Send(2, 0, 1, 0) // accepted at 1, delivered at 9
			case 1:
				p.WaitUntil(8)
				p.Send(3, 0, 1, 0) // accepted at 9
				p.Compute(10)
				panic("late")
			case 2:
				p.Recv()
				panic("early")
			case 3:
				p.Recv()
			}
		}, false, "processor 2 panicked: early"},
		// Processor 0 panics behind more Sends than a batch holds, at
		// clock 19, after the last of them is accepted; processor 1
		// panics at clock 15, so its panic is the one reported.
		{"panic-behind-batch", func(p logp.Proc) {
			switch p.ID() {
			case 0:
				for k := range logp.DeferCap + 2 {
					p.Send(3, 0, int64(k), 0)
				}
				panic("batched")
			case 1:
				p.Compute(15)
				panic("second")
			case 3:
				for range logp.DeferCap + 2 {
					p.Recv()
				}
			}
		}, false, "processor 1 panicked: second"},
		// Processor 3 panics right after a RecvInto of three messages,
		// the last acquired at 13, so at clock 14; processor 2 panics
		// later, at clock 20.
		{"panic-after-recvinto", func(p logp.Proc) {
			switch p.ID() {
			case 0:
				for k := range 3 {
					p.Send(3, 0, int64(k), 0)
				}
			case 2:
				p.Compute(20)
				panic("later")
			case 3:
				got := make([]logp.Message, 3)
				p.RecvInto(got)
				panic(fmt.Sprintf("after %d", got[2].Payload))
			}
		}, false, "processor 3 panicked: after 2"},
		{"invalid-destination", func(p logp.Proc) {
			if p.ID() == 2 {
				p.Send(9, 0, 0, 0)
			}
		}, false, "processor 2 panicked: logp: Send to invalid destination 9 (P=4)"},
		{"self-send", func(p logp.Proc) {
			if p.ID() == 3 {
				p.Send(3, 0, 0, 0)
			}
		}, false, "processor 3 panicked: logp: Send to self"},
		{"negative-compute", func(p logp.Proc) {
			if p.ID() == 0 {
				p.Compute(-1)
			}
		}, false, "processor 0 panicked: logp: Compute(-1) with negative cycles"},
		{"strict-stall-free", func(p logp.Proc) {
			if p.ID() < 3 {
				for k := 0; k < 4; k++ {
					p.Send(3, 0, int64(k), 0) // 12 messages at capacity 4
				}
				return
			}
			for i := 0; i < 12; i++ {
				p.Recv()
			}
		}, true, "under WithStrictStallFree"},
	} {
		want := observe(t, params, func(sink func(logp.Event)) (logp.Result, error) {
			return reference.Run(params, tc.prog, reference.Config{Seed: 1, StrictStallFree: tc.strict, Sink: sink})
		})
		got := observe(t, params, func(sink func(logp.Event)) (logp.Result, error) {
			opts := []logp.Option{logp.WithEventLog(sink)}
			if tc.strict {
				opts = append(opts, logp.WithStrictStallFree())
			}
			return logp.NewMachine(params, opts...).Run(tc.prog)
		})
		bridged := observe(t, params, func(sink func(logp.Event)) (logp.Result, error) {
			opts := []logp.Option{logp.WithEventLog(sink)}
			if tc.strict {
				opts = append(opts, logp.WithStrictStallFree())
			}
			sc := logp.ProgramAsScript(params, tc.prog)
			defer sc.Stop()
			return logp.NewMachine(params, opts...).RunScript(sc)
		})
		if want.err == nil || !strings.Contains(want.err.Error(), tc.want) {
			t.Fatalf("%s: reference error %v, want one containing %q", tc.name, want.err, tc.want)
		}
		mustMatch(t, tc.name, want, got)
		mustMatch(t, tc.name+" bridge", got, bridged)
	}
}
