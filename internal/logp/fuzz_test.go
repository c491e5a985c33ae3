package logp

import (
	"hash/fnv"
	"reflect"
	"testing"
)

// fuzzOp is one decoded instruction of a generated processor script.
type fuzzOp struct {
	kind byte // 0 compute, 1 waituntil, 2 send, 3 tryrecv, 4 buffered
	a, b int64
	dst  int
}

// decodeFuzzProgram turns raw fuzz bytes into a guaranteed-terminating
// Program: each processor executes a bounded script of local work,
// idling, sends, polls, and buffer queries, then drains exactly its
// in-degree with blocking Recvs. Every send eventually completes (the
// Stalling Rule resolves by time passing, not by receiver action) and
// every drain target is met, so the program terminates under any
// admissible execution — the property that lets the differential
// harness compare complete runs. Received payloads feed back into
// Compute amounts so the interleaving is data-dependent, exercising
// the fast path's run-ahead in input-sensitive programs.
func decodeFuzzProgram(data []byte) (Program, int) {
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
		op := fuzzOp{kind: data[0] % 5, a: int64(data[1]), b: int64(data[2])}
		if len(scripts[proc]) < 24 { // bounded scripts keep cases fast
			if op.kind == 2 {
				op.dst = (proc + 1 + int(data[1])%(p-1)) % p // never self
				inDeg[op.dst]++
			}
			scripts[proc] = append(scripts[proc], op)
		}
		data = data[3:]
		proc = (proc + 1) % p
	}
	prog := func(pr Proc) {
		got := 0
		for _, op := range scripts[pr.ID()] {
			switch op.kind {
			case 0:
				pr.Compute(1 + op.a%8)
			case 1:
				pr.WaitUntil(pr.Now() + op.a%16)
			case 2:
				pr.SendBody(op.dst, int32(op.a%4), op.b, op.a, op.b)
			case 3:
				if m, ok := pr.TryRecv(); ok {
					got++
					pr.Compute(1 + m.Payload%5)
				}
			case 4:
				pr.Compute(int64(pr.Buffered()%3) + 1)
			}
		}
		for got < inDeg[pr.ID()] {
			m := pr.Recv()
			got++
			pr.Compute(1 + m.Payload%7)
		}
	}
	return prog, p
}

// runOnce executes prog on a fresh machine and captures everything
// observable: the Result, the emitted trace, and the streaming
// auditor's structured metrics.
func runOnce(t *testing.T, params Params, prog Program, opts ...Option) (Result, []Event, *Metrics, error) {
	t.Helper()
	a := NewAuditor(params, TraceOptions{RequireAcquired: false})
	var events []Event
	opts = append(opts, WithEventLog(func(ev Event) {
		events = append(events, ev)
		a.Observe(ev)
	}))
	m := NewMachine(params, opts...)
	res, err := m.Run(prog)
	if err != nil {
		return res, events, nil, err
	}
	if err := a.Finish(res); err != nil {
		t.Fatalf("auditor rejected an engine run: %v (all: %v)", err, a.Violations())
	}
	return res, events, a.Metrics(), nil
}

// checkFastSlowEquivalence runs the decoded program on the fast-path
// engine and on the WithSlowPath oracle, under every delivery policy
// and a sweep of parameter sets including the degenerate corners
// (G == L pins the capacity to 1 and keeps the delivery watermark
// hugging the clocks; O == G == L aligns every operation to instant
// boundaries). It asserts bit-for-bit identical Results, traces, and
// audit metrics across the two engines: batching, pooling, buffered
// emission, and proc-side run-ahead must all be unobservable.
func checkFastSlowEquivalence(t *testing.T, data []byte) {
	t.Helper()
	prog, p := decodeFuzzProgram(data)
	if prog == nil {
		return
	}
	h := fnv.New64a()
	h.Write(data)
	seed := h.Sum64() | 1
	paramSets := []Params{
		{P: p, L: 8, O: 1, G: 2},
		{P: p, L: 2, O: 1, G: 2}, // G == L: capacity 1
		{P: p, L: 2, O: 2, G: 2}, // O == G == L
	}
	for _, params := range paramSets {
		for _, policy := range []DeliveryPolicy{DeliverMaxLatency, DeliverMinLatency, DeliverRandom} {
			opts := []Option{WithDeliveryPolicy(policy), WithSeed(seed)}
			if policy == DeliverRandom {
				// Random delivery shares the rng with random acceptance;
				// exercise both consumers so a fast-path reordering of rng
				// draws cannot hide.
				opts = append(opts, WithAcceptOrder(AcceptRandom))
			}
			fastRes, fastTrace, fastMetrics, fastErr := runOnce(t, params, prog, opts...)
			slowRes, slowTrace, slowMetrics, slowErr := runOnce(t, params, prog, append(opts, WithSlowPath())...)
			if (fastErr == nil) != (slowErr == nil) ||
				(fastErr != nil && fastErr.Error() != slowErr.Error()) {
				t.Fatalf("%v/%v: error mismatch: fast %v, slow %v", params, policy, fastErr, slowErr)
			}
			if fastErr != nil {
				continue
			}
			if !reflect.DeepEqual(fastRes, slowRes) {
				t.Fatalf("%v/%v: Result mismatch:\nfast %+v\nslow %+v", params, policy, fastRes, slowRes)
			}
			if !reflect.DeepEqual(fastTrace, slowTrace) {
				if len(fastTrace) != len(slowTrace) {
					t.Fatalf("%v/%v: trace length mismatch: fast %d, slow %d", params, policy, len(fastTrace), len(slowTrace))
				}
				for i := range fastTrace {
					if !reflect.DeepEqual(fastTrace[i], slowTrace[i]) {
						t.Fatalf("%v/%v: trace diverges at event %d:\nfast %+v\nslow %+v", params, policy, i, fastTrace[i], slowTrace[i])
					}
				}
			}
			if !reflect.DeepEqual(fastMetrics, slowMetrics) {
				t.Fatalf("%v/%v: audit metrics mismatch:\nfast %+v\nslow %+v", params, policy, fastMetrics, slowMetrics)
			}
		}
	}
}

// FuzzFastPathEquivalence differentially fuzzes the coroutine fast
// path against the slow-path oracle. `go test` replays the seed corpus
// deterministically; `go test -fuzz=FuzzFastPathEquivalence` explores.
func FuzzFastPathEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 0, 0, 2, 1, 3, 2, 2, 2})
	// Dense senders: every third op is a send, driving stalls.
	dense := make([]byte, 64)
	for i := range dense {
		dense[i] = byte(i*7 + 2)
	}
	f.Add(dense)
	// Poll-heavy: TryRecv and Buffered interleaved with sparse sends.
	poll := make([]byte, 48)
	for i := range poll {
		poll[i] = byte((i % 5) * 3)
	}
	f.Add(poll)
	// All-compute run-ahead: no communication at all on some procs.
	f.Add([]byte{2, 0, 9, 9, 0, 4, 4, 1, 8, 8, 2, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkFastSlowEquivalence(t, data)
	})
}

// TestFastPathEquivalenceCorpus pins a few structured cases (beyond
// the fuzz seed corpus) so the differential check runs on plain
// `go test` even when fuzzing is unavailable.
func TestFastPathEquivalenceCorpus(t *testing.T) {
	cases := [][]byte{
		{0, 2, 1, 1, 2, 3, 3, 0, 5, 5, 4, 2, 2, 2, 9, 9},
		{1, 7, 7, 7, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		{2, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6},
	}
	for _, data := range cases {
		checkFastSlowEquivalence(t, data)
	}
}
