package logp_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logp"
	"repro/internal/logp/reference"
)

// ringScriptState is one processor's progress through the ring script.
type ringScriptState struct{ sent, recvd int }

// ringScript drives every processor: R sends around a directed ring,
// then R blocking receives. All processors are active.
type ringScript struct {
	p, rounds int
	st        []ringScriptState
}

func newRingScript(p, rounds int) *ringScript {
	return &ringScript{p: p, rounds: rounds, st: make([]ringScriptState, p)}
}

func (s *ringScript) Active(int) bool { return true }

func (s *ringScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	st := &s.st[id]
	if st.sent < s.rounds {
		st.sent++
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id + 1) % s.p, Tag: 1, Payload: int64(st.sent), Aux: int64(id)}
	}
	if st.recvd < s.rounds {
		st.recvd++
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	}
	return logp.ScriptOp{Kind: logp.ScriptHalt}
}

// bcastScript is the binomial span-halving broadcast: only the root is
// active; every other processor is passive until the value reaches it,
// then relays into its half of the remaining range. With p = 10⁶ and a
// handful of tree levels live at a time, the active set stays O(log p)
// — the shape the lazy engine exists for.
type bcastScript struct {
	p  int
	st []bcastState
}

type bcastState struct {
	received bool
	hi       int // exclusive upper end of the range this node covers
}

func newBcastScript(p int) *bcastScript {
	return &bcastScript{p: p, st: make([]bcastState, p)}
}

func (s *bcastScript) Active(id int) bool { return id == 0 }

func (s *bcastScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	st := &s.st[id]
	if !st.received {
		if id == 0 {
			st.received = true
			st.hi = s.p
		} else {
			if !prev.OK {
				return logp.ScriptOp{Kind: logp.ScriptRecv}
			}
			st.received = true
			st.hi = int(prev.Msg.Payload)
		}
	}
	if st.hi-id > 1 {
		mid := id + (st.hi-id+1)/2
		op := logp.ScriptOp{Kind: logp.ScriptSend, Dst: mid, Tag: 2, Payload: int64(st.hi), Aux: int64(id)}
		st.hi = mid
		return op
	}
	return logp.ScriptOp{Kind: logp.ScriptHalt}
}

// haltFloodScript: processor 0 halts immediately; every other
// processor computes, then fires k messages at it and halts. The
// messages land on a halted, recycled processor, pinning the
// doneBufLen accounting of MaxBufferDepth.
type haltFloodScript struct {
	p, k int
	sent []int
}

func newHaltFloodScript(p, k int) *haltFloodScript {
	return &haltFloodScript{p: p, k: k, sent: make([]int, p)}
}

func (s *haltFloodScript) Active(int) bool { return true }

func (s *haltFloodScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	if id == 0 {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	if s.sent[id] < s.k {
		s.sent[id]++
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: 0, Tag: 3, Payload: int64(s.sent[id]), Aux: 0}
	}
	return logp.ScriptOp{Kind: logp.ScriptHalt}
}

// prefixScript exercises the passivity contract's legal prefix: odd
// processors are passive with a Compute+WaitUntil prefix before their
// first Recv; even processors send to them.
type prefixScript struct {
	p  int
	st []uint8
}

func newPrefixScript(p int) *prefixScript { return &prefixScript{p: p, st: make([]uint8, p)} }

func (s *prefixScript) Active(id int) bool { return id%2 == 0 }

func (s *prefixScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	st := &s.st[id]
	if id%2 == 0 {
		if *st == 0 {
			*st = 1
			return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id + 1) % s.p, Tag: 4, Payload: int64(id), Aux: 7}
		}
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	switch *st {
	case 0:
		*st = 1
		return logp.ScriptOp{Kind: logp.ScriptCompute, N: int64(3 + id%5)}
	case 1:
		*st = 2
		return logp.ScriptOp{Kind: logp.ScriptWait, N: prev.Now + 2}
	case 2:
		*st = 3
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// checkScriptEquivalence asserts that the sparse scripted engine
// produces bit for bit the Results, traces, and audit metrics of the
// reference interpreter running the Script's Program form, and of the
// dense engine path Run(ScriptAsProgram), under every delivery policy
// and acceptance order, seeded with seed. mk must return a fresh Script
// each call (scripts carry mutable per-processor state).
func checkScriptEquivalence(t *testing.T, params logp.Params, mk func() logp.Script, seed uint64) {
	t.Helper()
	for _, v := range variants(seed) {
		label := fmt.Sprintf("%v/%v", params, v)
		want := referenceRun(t, params, v, logp.ScriptAsProgram(mk()))
		dense := engineRun(t, params, v, func(m *logp.Machine) (logp.Result, error) { return m.Run(logp.ScriptAsProgram(mk())) })
		sparse := engineRun(t, params, v, func(m *logp.Machine) (logp.Result, error) { return m.RunScript(mk()) })
		mustMatch(t, label+" reference vs RunScript", want, sparse)
		mustMatch(t, label+" Run(ScriptAsProgram) vs RunScript", dense, sparse)
	}
}

// TestScriptEquivalence is the scripted engine's correctness contract
// at pinned sizes: the lazy scripted engine must be byte-identical to
// the reference interpreter and to the dense coroutine path at
// p ∈ {16, 128, 1024}.
func TestScriptEquivalence(t *testing.T) {
	paramsFor := func(p int) []logp.Params {
		return []logp.Params{
			{P: p, L: 32, O: 2, G: 4}, // the E2 machine
			{P: p, L: 4, O: 1, G: 4},  // G == L: capacity 1 (E3's tight corner)
		}
	}
	for _, p := range []int{16, 128, 1024} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			for _, params := range paramsFor(p) {
				checkScriptEquivalence(t, params, func() logp.Script { return newRingScript(p, 3) }, 99)
				checkScriptEquivalence(t, params, func() logp.Script { return newBcastScript(p) }, 99)
				checkScriptEquivalence(t, params, func() logp.Script { return newPrefixScript(p) }, 99)
			}
			// The halt-flood stalls heavily; one param set keeps it fast.
			checkScriptEquivalence(t, logp.Params{P: p, L: 8, O: 1, G: 2},
				func() logp.Script { return newHaltFloodScript(p, 3) }, 99)
		})
	}
}

// TestScriptRecycledBufferDepth pins the doneBufLen path directly:
// messages delivered to a halted, recycled processor must still drive
// MaxBufferDepth exactly as an ever-growing buffer does. Both engine
// forms recycle halted processors, so the reference interpreter, which
// keeps every processor's buffer, is the run they must equal.
func TestScriptRecycledBufferDepth(t *testing.T) {
	params := logp.Params{P: 5, L: 8, O: 1, G: 2}
	want, err := reference.Run(params, logp.ScriptAsProgram(newHaltFloodScript(5, 4)), reference.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := logp.NewMachine(params).Run(logp.ScriptAsProgram(newHaltFloodScript(5, 4)))
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := logp.NewMachine(params).RunScript(newHaltFloodScript(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, dense) {
		t.Fatalf("Result mismatch:\nreference %+v\ndense     %+v", want, dense)
	}
	if !reflect.DeepEqual(want, sparse) {
		t.Fatalf("Result mismatch:\nreference %+v\nsparse    %+v", want, sparse)
	}
	if want.MaxBufferDepth != 16 {
		t.Fatalf("MaxBufferDepth = %d, want 16 (4 senders x 4 messages on the halted proc)", want.MaxBufferDepth)
	}
}

// violationScript breaks the passivity contract in a configurable way.
type violationScript struct {
	p    int
	kind logp.ScriptKind // the illegal op the passive processor leads with
	st   []bool
}

func (s *violationScript) Active(id int) bool { return id == 0 }

func (s *violationScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	if id == 0 {
		if !s.st[0] {
			s.st[0] = true
			return logp.ScriptOp{Kind: logp.ScriptSend, Dst: 1, Tag: 1, Payload: 1, Aux: 1}
		}
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	if !s.st[id] {
		s.st[id] = true
		return logp.ScriptOp{Kind: s.kind, Dst: (id + 1) % s.p, N: 1}
	}
	if s.kind == logp.ScriptTryRecv || s.kind == logp.ScriptBuffered {
		// Reachable only under the dense oracle, which runs the poll.
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	return logp.ScriptOp{Kind: logp.ScriptRecv}
}

// TestScriptPassivityViolation: a passive processor whose pre-Recv
// prefix sends or polls must fail the run with a contract error rather
// than silently diverge from the dense engine.
func TestScriptPassivityViolation(t *testing.T) {
	cases := []struct {
		kind logp.ScriptKind
		want string
	}{
		{logp.ScriptSend, "declared passive performed a non-local operation"},
		{logp.ScriptTryRecv, "declared passive performed a non-local operation"},
		{logp.ScriptBuffered, "declared passive performed a non-local operation"},
	}
	for _, c := range cases {
		s := &violationScript{p: 4, kind: c.kind, st: make([]bool, 4)}
		_, err := logp.NewMachine(logp.Params{P: 4, L: 8, O: 1, G: 2}).RunScript(s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("kind %d: error %v, want contains %q", c.kind, err, c.want)
		}
	}
}

// TestScriptDeadlockMatchesDense: a passive processor that is never
// messaged parks on Recv at finalization, and the deadlock report must
// name the same processors as the dense engine's.
func TestScriptDeadlockMatchesDense(t *testing.T) {
	mk := func() logp.Script {
		s := newPrefixScript(6)
		// Overwrite: nobody sends, so every passive processor deadlocks.
		return &starvedScript{prefixScript: s}
	}
	params := logp.Params{P: 6, L: 8, O: 1, G: 2}
	_, denseErr := logp.NewMachine(params).Run(logp.ScriptAsProgram(mk()))
	_, sparseErr := logp.NewMachine(params).RunScript(mk())
	if denseErr == nil || sparseErr == nil {
		t.Fatalf("expected deadlock from both engines, got dense %v, sparse %v", denseErr, sparseErr)
	}
	if denseErr.Error() != sparseErr.Error() {
		t.Fatalf("deadlock reports differ:\ndense  %v\nsparse %v", denseErr, sparseErr)
	}
}

// starvedScript is prefixScript with the active senders halting
// immediately, starving the passive receivers.
type starvedScript struct{ *prefixScript }

func (s *starvedScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	if id%2 == 0 {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	return s.prefixScript.Next(id, prev)
}

// TestRunScriptReuse: repeated RunScript calls on one machine recycle
// the processor pool across runs without cross-run contamination.
func TestRunScriptReuse(t *testing.T) {
	m := logp.NewMachine(logp.Params{P: 64, L: 32, O: 2, G: 4})
	var first logp.Result
	for i := 0; i < 3; i++ {
		res, err := m.RunScript(newBcastScript(64))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Fatalf("run %d diverged from run 0:\nfirst %+v\n got  %+v", i, first, res)
		}
	}
	// Alternate forms on the same machine: the pool must serve both.
	progRes, err := m.Run(logp.ScriptAsProgram(newBcastScript(64)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, progRes) {
		t.Fatalf("Program form on reused machine diverged:\nscript  %+v\nprogram %+v", first, progRes)
	}
}

// decodeFuzzScript is decodeFuzzProgram's Script twin: the same byte
// decoding, but driven as an engine-side state machine. Processors
// whose script is empty lead with Recv (or halt), which makes them
// contract-compliant passives — the fuzzer explores lazy instantiation
// and template finalization for free.
func decodeFuzzScript(data []byte) (func() logp.Script, int) {
	if len(data) < 2 {
		return nil, 0
	}
	p := 2 + int(data[0])%3
	data = data[1:]
	scripts := make([][]fuzzOp, p)
	inDeg := make([]int, p)
	proc := 0
	for len(data) >= 3 {
		op := fuzzOp{kind: data[0] % 5, a: int64(data[1]), b: int64(data[2])}
		if len(scripts[proc]) < 24 {
			if op.kind == 2 {
				op.dst = (proc + 1 + int(data[1])%(p-1)) % p
				inDeg[op.dst]++
			}
			scripts[proc] = append(scripts[proc], op)
		}
		data = data[3:]
		proc = (proc + 1) % p
	}
	return func() logp.Script {
		return &fuzzScript{scripts: scripts, inDeg: inDeg, st: make([]fuzzScriptState, p)}
	}, p
}

type fuzzScriptState struct {
	pc     int
	got    int
	resume uint8 // 0 none, 1 tryrecv, 2 buffered, 3 drain recv
}

type fuzzScript struct {
	scripts [][]fuzzOp
	inDeg   []int
	st      []fuzzScriptState
}

func (s *fuzzScript) Active(id int) bool { return len(s.scripts[id]) > 0 }

func (s *fuzzScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	st := &s.st[id]
	switch st.resume {
	case 1:
		st.resume = 0
		st.pc++
		if prev.OK {
			st.got++
			return logp.ScriptOp{Kind: logp.ScriptCompute, N: 1 + prev.Msg.Payload%5}
		}
	case 2:
		st.resume = 0
		st.pc++
		return logp.ScriptOp{Kind: logp.ScriptCompute, N: prev.N%3 + 1}
	case 3:
		st.resume = 0
		st.got++
		return logp.ScriptOp{Kind: logp.ScriptCompute, N: 1 + prev.Msg.Payload%7}
	}
	ops := s.scripts[id]
	if st.pc < len(ops) {
		op := ops[st.pc]
		switch op.kind {
		case 0:
			st.pc++
			return logp.ScriptOp{Kind: logp.ScriptCompute, N: 1 + op.a%8}
		case 1:
			st.pc++
			return logp.ScriptOp{Kind: logp.ScriptWait, N: prev.Now + op.a%16}
		case 2:
			st.pc++
			return logp.ScriptOp{Kind: logp.ScriptSend, Dst: op.dst, Tag: int32(op.a % 4), Payload: op.b, Aux: op.a}
		case 3:
			st.resume = 1
			return logp.ScriptOp{Kind: logp.ScriptTryRecv}
		default:
			st.resume = 2
			return logp.ScriptOp{Kind: logp.ScriptBuffered}
		}
	}
	if st.got < s.inDeg[id] {
		st.resume = 3
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	}
	return logp.ScriptOp{Kind: logp.ScriptHalt}
}

// checkScriptFuzzEquivalence runs a decoded fuzz script on the sparse
// scripted engine, the dense engine path, and the reference
// interpreter across policies, acceptance orders, and parameter
// corners.
func checkScriptFuzzEquivalence(t *testing.T, data []byte) {
	t.Helper()
	mk, p := decodeFuzzScript(data)
	if mk == nil {
		return
	}
	for _, params := range []logp.Params{
		{P: p, L: 8, O: 1, G: 2},
		{P: p, L: 2, O: 1, G: 2},
	} {
		checkScriptEquivalence(t, params, mk, fuzzSeed(data))
	}
}

// FuzzScriptEquivalence differentially fuzzes the sparse scripted
// engine against the reference interpreter and the dense engine path.
// The seed corpus leans on
// short inputs, which leave trailing processors passive (empty
// scripts), and send-heavy ones, which exercise delivery-time
// instantiation and post-halt delivery.
func FuzzScriptEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 0, 0, 2, 1, 3})          // one sender, passive receivers
	f.Add([]byte{2, 2, 3, 1})                   // 4 procs, 1 op: three passive templates
	f.Add([]byte{0, 2, 9, 9, 2, 4, 4, 2, 1, 1}) // send barrage at passives
	f.Add([]byte{1, 0, 5, 5, 3, 1, 1, 4, 2, 2}) // polls mixed with a passive drain
	dense := make([]byte, 64)
	for i := range dense {
		dense[i] = byte(i*7 + 2)
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkScriptFuzzEquivalence(t, data)
	})
}

// TestScriptEquivalenceCorpus replays structured fuzz cases on plain
// `go test`, fuzzing available or not.
func TestScriptEquivalenceCorpus(t *testing.T) {
	cases := [][]byte{
		{1, 2, 0, 0, 2, 1, 3},
		{2, 2, 3, 1},
		{0, 2, 1, 1, 2, 3, 3, 0, 5, 5, 4, 2, 2, 2, 9, 9},
		{1, 7, 7, 7, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		{2, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6},
	}
	for _, data := range cases {
		checkScriptFuzzEquivalence(t, data)
	}
}

// TestProgramAsScript drives the bridge by hand: each Proc call but
// Compute(0) is one Next, results flow back into the program, SendBody
// keeps its body, a return is ScriptHalt, and a panic leaves through
// Next.
func TestProgramAsScript(t *testing.T) {
	params := logp.Params{P: 2, L: 8, O: 1, G: 2}
	body := new(int)
	in := logp.Message{Src: 0, Dst: 1, Tag: 2, Payload: 3, Body: body}
	var (
		now  []int64
		msg  logp.Message
		ok   bool
		nbuf int
	)
	sc := logp.ProgramAsScript(params, func(p logp.Proc) {
		if p.ID() == 0 {
			return
		}
		p.Compute(0)
		p.Compute(3)
		now = append(now, p.Now())
		p.WaitUntil(9)
		now = append(now, p.Now())
		p.SendBody(0, 4, 5, 6, body)
		msg = p.Recv()
		_, ok = p.TryRecv()
		nbuf = p.Buffered()
		panic("bridge boom")
	})
	defer sc.Stop()
	if !sc.Active(0) || !sc.Active(1) {
		t.Fatal("a Program's processors must all be active")
	}
	if op := sc.Next(0, logp.ScriptResult{}); op.Kind != logp.ScriptHalt {
		t.Fatalf("returning program: got %+v, want ScriptHalt", op)
	}
	for i, step := range []struct {
		prev logp.ScriptResult
		want logp.ScriptOp
	}{
		{logp.ScriptResult{}, logp.ScriptOp{Kind: logp.ScriptCompute, N: 3}},
		{logp.ScriptResult{Now: 3}, logp.ScriptOp{Kind: logp.ScriptWait, N: 9}},
		{logp.ScriptResult{Now: 9}, logp.ScriptOp{Kind: logp.ScriptSend, Dst: 0, Tag: 4, Payload: 5, Aux: 6, Body: body}},
		{logp.ScriptResult{Now: 10}, logp.ScriptOp{Kind: logp.ScriptRecv}},
		{logp.ScriptResult{Msg: in, OK: true, Now: 20}, logp.ScriptOp{Kind: logp.ScriptTryRecv}},
		{logp.ScriptResult{Now: 21}, logp.ScriptOp{Kind: logp.ScriptBuffered}},
	} {
		if op := sc.Next(1, step.prev); op != step.want {
			t.Fatalf("step %d: got %+v, want %+v", i, op, step.want)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "bridge boom" {
				t.Fatalf("Next recovered %v, want the program's panic", r)
			}
		}()
		sc.Next(1, logp.ScriptResult{N: 7, Now: 21})
		t.Fatal("Next returned past the program's panic")
	}()
	if !reflect.DeepEqual(now, []int64{3, 9}) || msg != in || ok || nbuf != 7 {
		t.Fatalf("program saw now=%v msg=%+v ok=%v buffered=%d", now, msg, ok, nbuf)
	}
}

// TestProgramAsScriptStop checks that Stop unwinds a program parked in
// a call, running its deferred functions before Stop returns.
func TestProgramAsScriptStop(t *testing.T) {
	unwound := false
	sc := logp.ProgramAsScript(logp.Params{P: 2, L: 8, O: 1, G: 2}, func(p logp.Proc) {
		defer func() { unwound = true }()
		p.Recv()
		t.Error("Recv returned after Stop")
	})
	if op := sc.Next(0, logp.ScriptResult{}); op.Kind != logp.ScriptRecv {
		t.Fatalf("got %+v, want ScriptRecv", op)
	}
	sc.Stop()
	if !unwound {
		t.Fatal("Stop returned before the parked program unwound")
	}
}
